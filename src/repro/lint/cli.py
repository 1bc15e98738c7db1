"""The ``repro-lint`` command-line interface.

Exit-code contract (relied on by CI and :mod:`tests.test_cli`):

* ``0`` — no findings;
* ``1`` — at least one finding;
* ``2`` — usage or I/O error (unknown rule code, missing path, ...).

Examples::

    repro-lint src/repro
    repro-lint --select RPL003,RPL008 src
    python -m repro.lint src/ tests/ examples/
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import iter_python_files, lint_paths
from repro.lint.reporters import render_text
from repro.lint.rules import DEFAULT_PATH_RULES, all_rules

__all__ = ["build_parser", "main", "run"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "reprolint — AST-based reproducibility & numerical-safety "
            "linter for the carbon-neutral edge inference reproduction"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rule codes and exit",
    )
    return parser


def _default_paths() -> list[str]:
    import repro

    return [str(Path(repro.__file__).parent)]


def run(paths: list[str], *, select: list[str] | None = None) -> tuple[str, int]:
    """Lint ``paths`` under :data:`~repro.lint.rules.DEFAULT_PATH_RULES`.

    Returns ``(report, exit_code)`` per the CLI contract.
    """
    try:
        files = list(iter_python_files(paths))
        findings = lint_paths(files, select=select, path_rules=DEFAULT_PATH_RULES)
    except (FileNotFoundError, ValueError, OSError) as exc:
        return f"repro-lint: error: {exc}", 2
    return render_text(findings, checked_files=len(files)), 1 if findings else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-lint`` and ``python -m repro.lint``."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
        return 0
    paths = args.paths or _default_paths()
    select = args.select.split(",") if args.select else None
    report, code = run(paths, select=select)
    stream = sys.stderr if code == 2 else sys.stdout
    print(report, file=stream)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
