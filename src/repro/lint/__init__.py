"""reprolint — AST-based reproducibility & numerical-safety linter.

This reproduction's claims (Theorem 1-3 regret/fit bounds, figure-level
agreement with the paper) are only checkable when every run is seed-exact
and every numerical invariant holds.  reprolint enforces that discipline
statically: a visitor framework over the Python AST, a registry of rules
with stable ``RPL001``... codes, per-line ``# noqa: RPLxxx`` suppression,
and a text reporter.  Runs over a path set share one
:class:`~repro.lint.project.ProjectContext` — an import/symbol index that
lets rules follow calls and re-exports *across* the linted files
(async-safety RPL012, RNG-stream discipline RPL015).  The whole package
gates itself through ``tests/test_lint_self.py``, which requires
``repro-lint src/repro`` to report zero findings.

Quick use::

    from repro.lint import lint_paths
    findings = lint_paths(["src/repro"])      # [] when clean

    $ python -m repro.lint src/repro          # exit 0 clean / 1 findings
"""

from repro.lint.engine import (
    FileContext,
    Finding,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.project import ModuleInfo, ProjectContext, build_project
from repro.lint.reporters import render_text
from repro.lint.rules import (
    DEFAULT_PATH_RULES,
    ProjectRule,
    Rule,
    all_rules,
    register,
    registered_codes,
)

__all__ = [
    "DEFAULT_PATH_RULES",
    "FileContext",
    "Finding",
    "ModuleInfo",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "build_project",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "registered_codes",
    "render_text",
]
