"""The reprolint rule registry.

Each rule has a stable code (``RPL001``...), a one-line summary, and a
``check(context)`` method yielding :class:`~repro.lint.engine.Finding`
objects.  Rules are registered with :func:`register` so reporters, the CLI,
and the self-gate test all enumerate the same set.

The rules encode this reproduction's failure modes: Algorithm 1's
Tsallis-INF sampling and Algorithm 2's primal-dual updates are verifiable
against the paper's Theorem 1-3 bounds only if every run is seed-exact and
every simplex/estimator invariant holds, so randomness must flow through
named ``np.random.Generator`` streams, clock reads must not leak into
simulated time, float comparisons must state a tolerance, failures must
not be swallowed, and the async serve tier must never block its loop.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.project import (
    ModuleInfo,
    ProjectContext,
    ResolvedFunction,
    build_module,
)

__all__ = [
    "BlockingCallInAsyncRule",
    "DEFAULT_PATH_RULES",
    "DroppedTaskRule",
    "FloatEqualityRule",
    "GlobalRandomStateRule",
    "LateRealizedRandomnessRule",
    "ProjectRule",
    "RawGeneratorRule",
    "Rule",
    "SilentExceptionRule",
    "UnseededDefaultRngRule",
    "WallClockRule",
    "all_rules",
    "dotted_name",
    "register",
    "registered_codes",
]

#: Per-path rule waivers applied by default (directory/stem -> rule codes).
#: ``tests/`` intentionally compare floats bit-for-bit (the reproducibility
#: contract *is* exact equality) and spin up ad-hoc seeded generators per
#: test case, so RPL003 and RPL015 are waived there.
DEFAULT_PATH_RULES: dict[str, frozenset[str]] = {
    "tests": frozenset({"RPL003", "RPL015"}),
}

_REGISTRY: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to the global registry (code-unique)."""
    if not cls.code.startswith("RPL"):
        raise ValueError(f"rule code must start with 'RPL', got {cls.code!r}")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list["Rule"]:
    """One fresh instance of every registered rule, sorted by code."""
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def registered_codes() -> list[str]:
    """The sorted stable codes of every registered rule."""
    return sorted(_REGISTRY)


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield findings."""

    code: str = "RPL000"
    summary: str = ""

    def check(self, context: FileContext) -> Iterator[Finding]:
        """Yield findings for one file; default walks every AST node."""
        for node in ast.walk(context.tree):
            yield from self.visit(node, context)

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        """Per-node hook for ``check``'s default walk; override either."""
        return iter(())

    def finding(self, context: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


def dotted_name(node: ast.AST) -> str | None:
    """Resolve ``a.b.c`` attribute chains to the string ``"a.b.c"``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> str | None:
    return dotted_name(node.func)


# Module-level numpy legacy RandomState functions and stdlib ``random``
# sampling functions — both mutate hidden global state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "beta", "binomial", "exponential",
        "gamma", "geometric", "gumbel", "laplace", "lognormal", "poisson",
        "get_state", "set_state", "random_integers", "randrange", "choices",
        "betavariate", "gauss", "expovariate", "triangular", "vonmisesvariate",
    }
)


@register
class GlobalRandomStateRule(Rule):
    """RPL001 — calls that draw from hidden global RNG state."""

    code = "RPL001"
    summary = (
        "global random state (np.random.* / random.*) breaks seed "
        "reproducibility; thread a np.random.Generator instead"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is None:
                return
            parts = name.split(".")
            if (
                len(parts) >= 2
                and parts[-2] == "random"
                and parts[-1] in _GLOBAL_RANDOM_FNS
            ):
                yield self.finding(
                    context,
                    node,
                    f"call to {name}() uses hidden global RNG state; "
                    "draw from an explicit np.random.Generator stream",
                )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _GLOBAL_RANDOM_FNS
                )
                if bad:
                    yield self.finding(
                        context,
                        node,
                        "importing global-state samplers from the stdlib "
                        f"random module ({', '.join(bad)}); use "
                        "np.random.Generator streams",
                    )


@register
class UnseededDefaultRngRule(Rule):
    """RPL002 — ``default_rng()`` with no seed in library code."""

    code = "RPL002"
    summary = (
        "default_rng() without a seed/SeedSequence is nondeterministic; "
        "accept a Generator parameter or thread a seed"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = _call_name(node)
        if name is None or name.split(".")[-1] != "default_rng":
            return
        if not node.args and not node.keywords:
            yield self.finding(
                context,
                node,
                "default_rng() without arguments seeds from OS entropy; "
                "pass a seed/SeedSequence or accept a Generator parameter",
            )


@register
class FloatEqualityRule(Rule):
    """RPL003 — ``==`` / ``!=`` against float literals."""

    code = "RPL003"
    summary = (
        "float equality comparison; use an explicit tolerance "
        "(math.isclose / np.isclose) or an ordering test"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Compare):
            return
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            if any(
                isinstance(side, ast.Constant) and isinstance(side.value, float)
                for side in pair
            ):
                yield self.finding(
                    context,
                    node,
                    "equality comparison against a float literal is "
                    "rounding-fragile; compare with a tolerance or restate "
                    "as an ordering test",
                )


_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """RPL008 — wall-clock reads leaking into simulated time."""

    code = "RPL008"
    summary = (
        "time.time()/datetime.now() makes runs time-dependent; simulated "
        "time must come from the slot index (perf_counter is fine for "
        "duration measurement)"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        name = _call_name(node)
        if name in _WALL_CLOCK_CALLS:
            yield self.finding(
                context,
                node,
                f"{name}() reads the wall clock, making runs "
                "nondeterministic; derive simulated time from the slot "
                "index (use time.perf_counter only to measure durations)",
            )


@register
class SilentExceptionRule(Rule):
    """RPL009 — bare excepts and silently swallowed broad exceptions."""

    code = "RPL009"
    summary = "bare except, or broad except whose body is just pass"

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.ExceptHandler):
            return
        if node.type is None:
            yield self.finding(
                context,
                node,
                "bare except catches SystemExit/KeyboardInterrupt too; "
                "name the exceptions you expect",
            )
            return
        broad = dotted_name(node.type) in {"Exception", "BaseException"}
        swallows = all(isinstance(stmt, ast.Pass) for stmt in node.body)
        if broad and swallows:
            yield self.finding(
                context,
                node,
                "broad exception silently swallowed; numerical failures in "
                "this codebase must surface, not vanish",
            )


# ---------------------------------------------------------------------------
# Project-aware rules (RPL012, RPL015)
# ---------------------------------------------------------------------------


class ProjectRule(Rule):
    """Base for rules that consume the cross-module :class:`ProjectContext`.

    The engine passes ``project`` when linting a path set; single-blob entry
    points pass ``None`` and the rule degrades to per-file precision (same
    code paths, empty import resolution).
    """

    requires_project = True

    def check(
        self, context: FileContext, project: ProjectContext | None = None
    ) -> Iterator[Finding]:
        """Yield findings for one file, with optional project context."""
        return iter(())


def _module_for(
    context: FileContext, project: ProjectContext | None
) -> ModuleInfo:
    """The indexed module for this file, building one locally if needed."""
    if project is not None:
        module = project.module_for_path(context.path)
        if module is not None:
            return module
    return build_module(context.path, context.tree)


def _canonical_call(name: str, module: ModuleInfo | None) -> str:
    """Rewrite a call name's head through the module's import aliases.

    ``sleep`` with ``from time import sleep`` becomes ``time.sleep``;
    unaliased names pass through unchanged.
    """
    if module is None:
        return name
    head, _, rest = name.partition(".")
    target = module.imports.get(head, head)
    return f"{target}.{rest}" if rest else target


def _follow_reexports(
    dotted: str, project: ProjectContext | None, _depth: int = 0
) -> str:
    """Chase ``from m import f as g`` chains across project modules.

    ``helpers.make_stream`` resolves to ``numpy.random.default_rng`` when
    ``helpers.py`` aliased it — the cross-module view per-file rules lack.
    """
    if project is None or _depth > 5 or "." not in dotted:
        return dotted
    mod_part, _, symbol = dotted.rpartition(".")
    target = project.resolve_module(mod_part)
    if target is not None and symbol in target.imports:
        onward = target.imports[symbol]
        if onward != dotted:
            return _follow_reexports(onward, project, _depth + 1)
    return dotted


def _executed_calls(
    body: list[ast.stmt] | ast.AST,
) -> Iterator[ast.Call]:
    """Calls executed when this body runs (nested defs/lambdas excluded)."""
    stack: list[ast.AST] = list(body) if isinstance(body, list) else [body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _async_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.AsyncFunctionDef, str | None]]:
    """Every ``async def`` in the module with its enclosing class name."""

    def walk(node: ast.AST, owner: str | None) -> Iterator[tuple[ast.AsyncFunctionDef, str | None]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            elif isinstance(child, ast.AsyncFunctionDef):
                yield child, owner
                yield from walk(child, owner)
            else:
                yield from walk(child, owner)

    yield from walk(tree, None)


def _resolve_sync_callee(
    name: str,
    module: ModuleInfo,
    owner_class: str | None,
    project: ProjectContext | None,
) -> ResolvedFunction | None:
    """Resolve a call name to a function def we can analyze, if possible."""
    if name.startswith("self."):
        rest = name[len("self.") :]
        if owner_class is None or "." in rest:
            return None
        node = module.class_method(owner_class, rest)
        if node is None:
            return None
        return ResolvedFunction(
            module=module, qualname=f"{owner_class}.{rest}", node=node
        )
    if project is not None:
        return project.resolve_function(module, name)
    if "." not in name:
        node = module.functions.get(name)
        if node is not None:
            return ResolvedFunction(module=module, qualname=name, node=node)
    return None


#: Canonical dotted names that always block the event loop.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "socket.create_connection",
        "socket.create_server",
        "socket.getaddrinfo",
    }
)

#: ``subprocess`` entry points that wait on a child synchronously.
_BLOCKING_SUBPROCESS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen", "getoutput",
     "getstatusoutput"}
)

#: Attribute calls performing synchronous file I/O (``Path`` and file
#: objects); receivers are not type-resolved, so this is a name heuristic.
_BLOCKING_FILE_ATTRS = frozenset(
    {"open", "read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Maximum function-call hops followed when searching for a transitively
#: reachable blocking primitive from an ``async def``.
_BLOCKING_DEPTH = 3


def _blocking_primitive(call: ast.Call, module: ModuleInfo | None) -> str | None:
    """A human-readable description if this call blocks the event loop."""
    name = _call_name(call)
    if name is None:
        return None
    canon = _canonical_call(name, module)
    if canon in _BLOCKING_CALLS:
        return f"{canon}()"
    parts = canon.split(".")
    if parts[0] == "subprocess" and parts[-1] in _BLOCKING_SUBPROCESS:
        return f"{canon}()"
    if name == "open" and (module is None or "open" not in module.imports):
        return "open()"
    if "." in name and name.split(".")[-1] in _BLOCKING_FILE_ATTRS:
        return f"{name}()"
    return None


@register
class BlockingCallInAsyncRule(ProjectRule):
    """RPL012 — blocking calls inside ``async def``, including transitive."""

    code = "RPL012"
    summary = (
        "blocking call (time.sleep / sync file or socket I/O / subprocess) "
        "inside async def stalls every coroutine sharing the loop; use the "
        "asyncio equivalent or asyncio.to_thread"
    )

    def check(
        self, context: FileContext, project: ProjectContext | None = None
    ) -> Iterator[Finding]:
        module = _module_for(context, project)
        for fn, owner in _async_functions(context.tree):
            for call in _executed_calls(fn.body):
                primitive = _blocking_primitive(call, module)
                if primitive is not None:
                    yield self.finding(
                        context,
                        call,
                        f"blocking {primitive} inside async def {fn.name}; "
                        "the event loop (and every other coroutine) stalls "
                        "until it returns — use the asyncio equivalent or "
                        "asyncio.to_thread",
                    )
                    continue
                name = _call_name(call)
                if name is None:
                    continue
                resolved = _resolve_sync_callee(name, module, owner, project)
                if resolved is None or isinstance(
                    resolved.node, ast.AsyncFunctionDef
                ):
                    continue
                seen = {(resolved.module.name, resolved.qualname)}
                hit = self._search(resolved, project, 1, seen)
                if hit is not None:
                    primitive, chain = hit
                    via = " -> ".join([resolved.qualname, *chain])
                    yield self.finding(
                        context,
                        call,
                        f"async def {fn.name} reaches blocking {primitive} "
                        f"through {via}; the event loop stalls until it "
                        "returns — use the asyncio equivalent or "
                        "asyncio.to_thread",
                    )

    def _search(
        self,
        fn: ResolvedFunction,
        project: ProjectContext | None,
        depth: int,
        seen: set[tuple[str, str]],
    ) -> tuple[str, list[str]] | None:
        """Find a blocking primitive reachable from ``fn``, depth-capped."""
        owner = fn.qualname.split(".")[0] if "." in fn.qualname else None
        for call in _executed_calls(fn.node.body):
            primitive = _blocking_primitive(call, fn.module)
            if primitive is not None:
                return primitive, []
            if depth >= _BLOCKING_DEPTH:
                continue
            name = _call_name(call)
            if name is None:
                continue
            resolved = _resolve_sync_callee(name, fn.module, owner, project)
            if resolved is None or isinstance(resolved.node, ast.AsyncFunctionDef):
                continue
            key = (resolved.module.name, resolved.qualname)
            if key in seen:
                continue
            seen.add(key)
            sub = self._search(resolved, project, depth + 1, seen)
            if sub is not None:
                return sub[0], [resolved.qualname, *sub[1]]
        return None


@register
class DroppedTaskRule(Rule):
    """RPL013 — ``asyncio.create_task`` results dropped without retention."""

    code = "RPL013"
    summary = (
        "asyncio.create_task/ensure_future result discarded; the event loop "
        "holds only a weak reference, so the task can be garbage-collected "
        "mid-flight — retain the handle"
    )

    def visit(self, node: ast.AST, context: FileContext) -> Iterator[Finding]:
        call: ast.Call | None = None
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "_"
        ):
            call = node.value
        if call is None:
            return
        name = _call_name(call)
        if name is None:
            return
        parts = name.split(".")
        spawns = (parts == ["asyncio", "create_task"]) or (
            parts[-1] == "ensure_future"
        ) or (len(parts) == 1 and parts[0] == "create_task")
        if spawns:
            yield self.finding(
                context,
                node,
                f"result of {name}() is dropped; asyncio keeps only a weak "
                "reference to scheduled tasks, so this one can be "
                "garbage-collected before it runs — keep the handle and "
                "await or cancel it during shutdown",
            )


#: ``numpy.random`` constructors that mint a fresh bit-generator stream.
_RAW_RNG_FACTORIES = frozenset(
    {"default_rng", "Generator", "RandomState", "PCG64", "MT19937", "Philox",
     "SFC64"}
)


def _is_raw_rng(canon: str) -> bool:
    """Whether a canonical dotted name is a raw numpy stream constructor."""
    parts = canon.split(".")
    if parts[-1] not in _RAW_RNG_FACTORIES:
        return False
    return "random" in parts or parts[0] in {"np", "numpy"}


@register
class RawGeneratorRule(ProjectRule):
    """RPL015 — raw generator creation outside the named-stream helpers."""

    code = "RPL015"
    summary = (
        "np.random.default_rng/Generator created outside repro.utils.rng; "
        "ad-hoc streams break the named-stream discipline that keeps runs "
        "seed-exact — use RngFactory.get or spawn_generator"
    )

    @staticmethod
    def _sanctioned(context: FileContext) -> bool:
        # repro/utils/rng.py is the named-stream helper module itself.
        return context.stem == "rng" and context.in_directory("utils")

    def check(
        self, context: FileContext, project: ProjectContext | None = None
    ) -> Iterator[Finding]:
        if self._sanctioned(context):
            return
        module = _module_for(context, project)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            canon = _canonical_call(name, module)
            resolved = _follow_reexports(canon, project)
            if not _is_raw_rng(resolved):
                continue
            via = "" if resolved == name else f" (resolves to {resolved})"
            yield self.finding(
                context,
                node,
                f"{name}(){via} creates a raw numpy generator outside the "
                "named-stream helpers; use RngFactory.get(name) or "
                "spawn_generator(seed, name) so the stream is keyed, not "
                "ordered",
            )


#: ``numpy.random.Generator`` sampling methods — calling one *realizes*
#: randomness (advances the stream).
_DRAW_METHODS = frozenset(
    {
        "random", "normal", "uniform", "integers", "choice", "shuffle",
        "permutation", "standard_normal", "exponential", "poisson",
        "binomial", "geometric", "gamma", "beta", "lognormal", "dirichlet",
        "multivariate_normal",
    }
)


def _rng_draw_base(call: ast.Call) -> str | None:
    """The receiver name if this call draws from a generator-like object."""
    if not isinstance(call.func, ast.Attribute):
        return None
    if call.func.attr not in _DRAW_METHODS:
        return None
    base = dotted_name(call.func.value)
    if base is None:
        return None
    leaf = base.split(".")[-1].lower()
    if "rng" in leaf or "random" in leaf or leaf in {"gen", "generator"}:
        return base
    return None


@register
class LateRealizedRandomnessRule(Rule):
    """RPL016 — fault-spec randomness realized after construction."""

    code = "RPL016"
    summary = (
        "fault/scenario class draws randomness in a method not reachable "
        "from __init__; realize every draw at construction so injection "
        "order cannot perturb other streams"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.in_directory("faults"):
            return
        for node in context.tree.body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, context)

    def _check_class(
        self, cls: ast.ClassDef, context: FileContext
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        roots = [name for name in ("__init__", "__post_init__") if name in methods]
        if not roots:
            return
        # Methods (and module-level helper calls) reachable from __init__
        # count as construction time.
        reachable: set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in reachable:
                continue
            reachable.add(current)
            for call in _executed_calls(methods[current].body):
                name = _call_name(call)
                if name is None:
                    continue
                if name.startswith("self."):
                    target = name[len("self.") :]
                    if target in methods and target not in reachable:
                        stack.append(target)
                elif name in methods and name not in reachable:
                    # staticmethod-style direct reference
                    stack.append(name)
        for name, method in sorted(methods.items()):
            if name in reachable:
                continue
            for call in ast.walk(method):
                if not isinstance(call, ast.Call):
                    continue
                base = _rng_draw_base(call)
                if base is not None:
                    yield self.finding(
                        context,
                        call,
                        f"{cls.name}.{name} draws from {base} after "
                        "construction; realize all fault randomness in "
                        "__init__ from named streams so replay order cannot "
                        "shift other consumers' draws",
                    )
