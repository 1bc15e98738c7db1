"""The reprolint engine: file discovery, parsing, noqa handling, rule runs.

A *finding* is one rule violation at one source location.  The engine owns
everything that is not rule logic: walking directories, parsing files into
ASTs, collecting ``# noqa`` suppression comments token-by-token, and
filtering each rule's raw findings through the suppressions.

Suppression syntax (checked per physical line, like flake8):

* ``# noqa`` — suppress every rule on that line;
* ``# noqa: RPL003`` — suppress one rule (comma-separate for several);
* ``# reprolint: skip-file`` anywhere in the file — skip the whole file.

Both forms may carry a trailing free-text reason after ``--``, e.g.
``# noqa: RPL003 -- exact sentinel comparison``.

Beyond line-level ``noqa``, whole path classes can waive specific rules via
*per-path rules*: a mapping of path component (a directory name or module
stem) to the rule codes waived there, e.g. ``{"tests": {"RPL003"}}`` —
tests compare floats bit-for-bit on purpose.  The default configuration
lives in :data:`repro.lint.rules.DEFAULT_PATH_RULES`.

Since the project-level pass, :func:`lint_paths` builds one shared
:class:`~repro.lint.project.ProjectContext` over every discovered file and
hands it to rules that declare ``requires_project = True`` alongside their
``FileContext``.  Single-blob entry points (:func:`lint_source`,
:func:`lint_file`) accept an optional ``project`` argument; without one,
project-aware rules fall back to per-file precision.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "FileContext",
    "Finding",
    "collect_noqa",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)
_SKIP_FILE_RE = re.compile(r"#\s*reprolint:\s*skip-file", re.IGNORECASE)

# Sentinel stored in the noqa map for a blanket (codeless) ``# noqa``.
_ALL_CODES = frozenset({"*"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location; every finding gates."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical one-line text form ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: str
    tree: ast.Module
    #: Path components of the file (directories plus stem), used by rules
    #: that apply only to parts of the tree (``faults/``, ``utils/rng``).
    parts: tuple[str, ...] = field(default_factory=tuple)

    @property
    def stem(self) -> str:
        """Module name without extension (``tsallis`` for ``.../tsallis.py``)."""
        return self.parts[-1] if self.parts else ""

    def in_directory(self, *names: str) -> bool:
        """Whether any *directory* component of the path matches ``names``."""
        return any(part in names for part in self.parts[:-1])


def _context_parts(path: str) -> tuple[str, ...]:
    """Path components relative to the enclosing package, stem last.

    For files inside a ``repro`` package the components after the *last*
    ``repro`` directory are used, so installed and in-tree layouts agree.
    """
    pure = Path(path)
    parts = list(pure.parts)
    parts[-1] = pure.stem
    if "repro" in parts[:-1]:
        last = (len(parts) - 2) - parts[:-1][::-1].index("repro")
        parts = parts[last + 1 :] or [pure.stem]
    return tuple(parts)


def collect_noqa(source: str) -> tuple[dict[int, frozenset[str]], bool]:
    """Map line number -> suppressed codes; also report skip-file directives.

    A blanket ``# noqa`` stores the ``{"*"}`` sentinel for its line.
    Unreadable token streams yield no suppressions rather than crashing.
    """
    suppressions: dict[int, frozenset[str]] = {}
    skip_file = False
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressions, skip_file
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        if _SKIP_FILE_RE.search(token.string):
            skip_file = True
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[token.start[0]] = _ALL_CODES
        else:
            parsed = frozenset(c.strip().upper() for c in codes.split(","))
            suppressions[token.start[0]] = suppressions.get(token.start[0], frozenset()) | parsed
    return suppressions, skip_file


def _is_suppressed(finding: Finding, suppressions: dict[int, frozenset[str]]) -> bool:
    codes = suppressions.get(finding.line)
    if codes is None:
        return False
    return codes == _ALL_CODES or finding.code in codes


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through as-is).

    Directories are walked recursively in sorted order so runs are
    deterministic; missing paths raise ``FileNotFoundError``.
    """
    for entry in paths:
        target = Path(entry)
        if target.is_dir():
            yield from sorted(p for p in target.rglob("*.py") if p.is_file())
        elif target.is_file():
            yield target
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")


def _select_rules(select: Iterable[str] | None):
    from repro.lint.rules import all_rules

    rules = all_rules()
    if select is None:
        return rules
    wanted = {code.strip().upper() for code in select}
    unknown = wanted - {rule.code for rule in rules}
    if unknown:
        raise ValueError(f"unknown rule codes: {sorted(unknown)}")
    return [rule for rule in rules if rule.code in wanted]


def _path_waivers(
    context: FileContext, path_rules: Mapping[str, Iterable[str]] | None
) -> frozenset[str]:
    """Rule codes waived for this file by the per-path configuration."""
    if not path_rules:
        return frozenset()
    waived: set[str] = set()
    for part, codes in path_rules.items():
        if context.stem == part or context.in_directory(part):
            waived.update(code.strip().upper() for code in codes)
    return frozenset(waived)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Iterable[str] | None = None,
    path_rules: Mapping[str, Iterable[str]] | None = None,
    project=None,
) -> list[Finding]:
    """Lint one in-memory source blob; ``path`` steers path-scoped rules.

    ``path_rules`` maps a path component (directory name or module stem) to
    rule codes waived for files under it — configuration-level suppression,
    as opposed to line-level ``noqa``.

    Syntax errors are reported as a single pseudo-finding with code
    ``RPL000`` rather than raised, so a broken file cannot crash a run
    covering hundreds of good ones.
    """
    rules = _select_rules(select)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code="RPL000",
                message=f"syntax error prevents analysis: {exc.msg}",
            )
        ]
    suppressions, skip_file = collect_noqa(source)
    if skip_file:
        return []
    context = FileContext(path=path, tree=tree, parts=_context_parts(path))
    waived = _path_waivers(context, path_rules)
    findings: list[Finding] = []
    for rule in rules:
        if rule.code in waived:
            continue
        if getattr(rule, "requires_project", False):
            findings.extend(rule.check(context, project=project))
        else:
            findings.extend(rule.check(context))
    findings = [f for f in findings if not _is_suppressed(f, suppressions)]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def lint_file(
    path: str | Path,
    *,
    select: Iterable[str] | None = None,
    path_rules: Mapping[str, Iterable[str]] | None = None,
    project=None,
) -> list[Finding]:
    """Lint one file on disk."""
    target = Path(path)
    source = target.read_text(encoding="utf-8")
    return lint_source(
        source,
        path=str(target),
        select=select,
        path_rules=path_rules,
        project=project,
    )


def lint_paths(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    path_rules: Mapping[str, Iterable[str]] | None = None,
) -> list[Finding]:
    """Lint every Python file under ``paths``; findings sorted by location.

    Builds one :class:`~repro.lint.project.ProjectContext` over the whole
    file set first, so project-aware rules see imports and symbols across
    all linted files — not just the one being checked.
    """
    from repro.lint.project import build_project

    files = list(iter_python_files(paths))
    project = build_project(files)
    findings: list[Finding] = []
    for target in files:
        findings.extend(
            lint_file(
                target,
                select=select,
                path_rules=path_rules,
                project=project,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
