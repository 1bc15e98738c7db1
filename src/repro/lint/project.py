"""Project-level analysis context for cross-module lint rules.

The original reprolint engine hands each rule one :class:`FileContext` at a
time, which is enough for local properties (float equality, global RNG
calls) but blind to the properties that actually protect the golden-digest
guarantee: an ``async def`` in :mod:`repro.serve` calling through two sync
helpers into a blocking ``open()``, or a module creating a raw
``np.random.Generator`` behind a factory wrapper imported from elsewhere.

:class:`ProjectContext` closes that gap.  Built once per ``lint_paths``
run, it holds a parsed :class:`ModuleInfo` per file — import aliases and
the module's top-level functions and class methods — plus a dotted-name
index that resolves imports *between the linted files*.  Rules that
subclass :class:`~repro.lint.rules.Rule` keep working untouched;
project-aware rules subclass ``ProjectRule`` and receive the context (or
``None`` under single-file :func:`~repro.lint.engine.lint_source`, where
they degrade to per-file precision).

Resolution is deliberately static and conservative: only names reachable
through explicit ``import``/``from ... import`` statements of files inside
the linted path set resolve; everything else (stdlib, third-party,
attribute chains on local variables) returns ``None`` and rules stay
silent rather than guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "FunctionDefNode",
    "ModuleInfo",
    "ProjectContext",
    "ResolvedFunction",
    "build_module",
    "build_project",
    "module_name_candidates",
]

#: Union alias for the two function-definition node flavours.
FunctionDefNode = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Re-export chains (``from a import f`` where ``a`` itself imported ``f``)
#: are followed at most this many hops.
_RESOLVE_DEPTH = 5


@dataclass(frozen=True)
class ResolvedFunction:
    """A function definition located through the project index."""

    module: "ModuleInfo"
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class ModuleInfo:
    """Everything the project pass records about one parsed module."""

    name: str
    path: str
    #: Local alias -> dotted target: ``np -> numpy``,
    #: ``save_snapshot -> repro.serve.snapshot.save_snapshot``.
    imports: dict[str, str] = field(default_factory=dict)
    #: Top-level function name -> def node.
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: ``Class.method`` -> def node for every method of every class.
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )

    def class_method(
        self, cls: str, method: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The def node of ``cls.method``, if that class defines it here."""
        return self.methods.get(f"{cls}.{method}")


def module_name_candidates(path: str) -> list[str]:
    """Dotted-name suffixes identifying the module at ``path``.

    ``src/repro/serve/runtime.py`` yields ``runtime``, ``serve.runtime``,
    ``repro.serve.runtime``, ... so imports can be matched by their longest
    available suffix without knowing the package root.  ``__init__`` files
    identify their package directory.
    """
    pure = Path(path)
    parts = list(pure.parts)
    parts[-1] = pure.stem
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    parts = [p for p in parts if p not in ("/", "\\", "..", ".")]
    candidates = []
    for start in range(len(parts) - 1, max(len(parts) - 6, -1), -1):
        candidates.append(".".join(parts[start:]))
    return [c for c in candidates if c]


def _collect_imports(tree: ast.Module, module_name: str) -> dict[str, str]:
    """Local alias -> dotted target for every import in one module."""
    imports: dict[str, str] = {}
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from this module's package.
                anchor = module_name.split(".")
                anchor = anchor[: len(anchor) - node.level] if len(anchor) >= node.level else []
                base = ".".join(anchor + ([node.module] if node.module else []))
                if not base:
                    base = node.module or package
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return imports


class ProjectContext:
    """The cross-module index shared by project-aware rules.

    Holds one :class:`ModuleInfo` per linted file and a suffix index for
    resolving dotted imports to those modules.
    """

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.by_path: dict[str, ModuleInfo] = {m.path: m for m in modules}
        # Suffix index: dotted suffix -> modules it identifies.  Ambiguous
        # suffixes (two files named utils.py in sibling packages) resolve
        # only through a longer suffix.
        self._suffixes: dict[str, list[ModuleInfo]] = {}
        for module in modules:
            for candidate in module_name_candidates(module.path):
                self._suffixes.setdefault(candidate, []).append(module)

    # -- module/import resolution -------------------------------------

    def module_for_path(self, path: str) -> ModuleInfo | None:
        """The ModuleInfo parsed from ``path`` (exact string match)."""
        return self.by_path.get(path)

    def resolve_module(self, dotted: str) -> ModuleInfo | None:
        """The unique project module identified by ``dotted``, if any."""
        hits = self._suffixes.get(dotted)
        if hits and len(hits) == 1:
            return hits[0]
        return None

    def resolve_function(
        self, module: ModuleInfo, name: str, *, _depth: int = 0
    ) -> ResolvedFunction | None:
        """Resolve a (possibly dotted) call name to a project function def.

        Follows ``from m import f`` aliases and ``import m`` attribute
        access (``m.f``), plus re-export chains up to a small depth.  Names
        that leave the linted file set resolve to ``None``.
        """
        if _depth > _RESOLVE_DEPTH:
            return None
        if "." not in name:
            node = module.functions.get(name)
            if node is not None:
                return ResolvedFunction(module=module, qualname=name, node=node)
            target = module.imports.get(name)
            if target is None:
                return None
            return self._resolve_dotted(target, _depth + 1)
        head, rest = name.split(".", 1)
        target = module.imports.get(head)
        if target is None:
            return None
        return self._resolve_dotted(f"{target}.{rest}", _depth + 1)

    def _resolve_dotted(self, dotted: str, depth: int) -> ResolvedFunction | None:
        """Resolve a fully-dotted ``package.module.symbol`` path."""
        if depth > _RESOLVE_DEPTH:
            return None
        if "." not in dotted:
            return None
        mod_part, symbol = dotted.rsplit(".", 1)
        target = self.resolve_module(mod_part)
        if target is None:
            # The tail may itself be nested (``pkg.mod.Class.method``) or
            # the symbol re-exported; try one level shorter.
            if "." in mod_part:
                shorter, cls = mod_part.rsplit(".", 1)
                owner = self.resolve_module(shorter)
                if owner is not None:
                    node = owner.class_method(cls, symbol)
                    if node is not None:
                        return ResolvedFunction(
                            module=owner, qualname=f"{cls}.{symbol}", node=node
                        )
            return None
        node = target.functions.get(symbol)
        if node is not None:
            return ResolvedFunction(module=target, qualname=symbol, node=node)
        # Re-export: the target module imported the symbol itself.
        onward = target.imports.get(symbol)
        if onward is not None and onward != dotted:
            return self._resolve_dotted(onward, depth + 1)
        return None


def _canonical_name(path: str) -> str:
    """The preferred display name for the module at ``path``."""
    candidates = module_name_candidates(path)
    for candidate in candidates:
        head = candidate.split(".", 1)[0]
        if head in ("repro", "tests", "examples"):
            return candidate
    # Fall back to the two-component suffix (or the stem alone).
    return candidates[min(1, len(candidates) - 1)]


def build_module(path: str, tree: ast.Module) -> ModuleInfo:
    """Index one parsed module for the project context."""
    name = _canonical_name(path)
    info = ModuleInfo(name=name, path=path, imports=_collect_imports(tree, name))
    for stmt in tree.body:
        if isinstance(stmt, FunctionDefNode):
            info.functions[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, FunctionDefNode):
                    info.methods[f"{stmt.name}.{sub.name}"] = sub
    return info


def build_project(files: Iterable[Path | str]) -> ProjectContext:
    """Parse every file and assemble the shared :class:`ProjectContext`.

    Unreadable or syntactically broken files are skipped here — the
    per-file engine reports them as ``RPL000`` findings; the project pass
    simply proceeds without their symbols.
    """
    modules: list[ModuleInfo] = []
    for entry in files:
        path = Path(entry)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError, ValueError):
            continue
        modules.append(build_module(str(path), tree))
    return ProjectContext(modules)
