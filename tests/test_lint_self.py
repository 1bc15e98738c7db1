"""The reprolint self-gate: the whole package must lint clean.

This is the tier-1 enforcement layer of the static-analysis subsystem — any
new global-RNG call, float-equality comparison, wall-clock read, swallowed
exception, or blocking call in a coroutine introduced anywhere in
``src/repro`` fails this test immediately, keeping the tree green by
construction.
"""

from pathlib import Path

import repro
from repro.lint import DEFAULT_PATH_RULES, lint_paths, registered_codes

PACKAGE_DIR = Path(repro.__file__).parent
EXAMPLES_DIR = PACKAGE_DIR.parent.parent / "examples"


def test_package_lints_clean():
    findings = lint_paths([PACKAGE_DIR])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"reprolint findings in src/repro:\n{rendered}"


def test_examples_have_no_errors_under_default_severity():
    # Examples are user-facing scripts linted under the default per-path
    # configuration.  There are no severity levels: every finding gates, so
    # the examples must lint to zero findings.
    findings = lint_paths([EXAMPLES_DIR], path_rules=DEFAULT_PATH_RULES)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"reprolint findings in examples/:\n{rendered}"


def test_examples_downgrade_is_print_only():
    # No downgrade or waiver stands behind the examples: without any
    # per-path configuration they still lint to zero findings.
    findings = lint_paths([EXAMPLES_DIR], path_rules={})
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"reprolint findings in examples/:\n{rendered}"


def test_tests_lint_clean_under_path_rules():
    # The test suite itself is gated: under the default per-path waivers
    # (RPL003 exact assertions, RPL015 throwaway generators) every other
    # rule — including the project-level families — must hold over tests/.
    tests_dir = PACKAGE_DIR.parent.parent / "tests"
    findings = lint_paths([tests_dir], path_rules=DEFAULT_PATH_RULES)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"reprolint findings in tests/:\n{rendered}"


def test_at_least_eight_rules_registered():
    codes = registered_codes()
    assert len(codes) >= 8
    assert codes == sorted(set(codes)), "rule codes must be unique and sorted"
    assert all(code.startswith("RPL") for code in codes)


def test_required_rule_codes_present():
    # Exactly the contract rules are registered.  Each guards a contract of
    # this system: seed-exact RNG streams (RPL001/002/015/016), float
    # equality (RPL003), the wall-clock ban (RPL008), loud failures (RPL009),
    # and async safety in the serve tier (RPL012/013).
    assert registered_codes() == [
        "RPL001", "RPL002", "RPL003", "RPL008", "RPL009",
        "RPL012", "RPL013", "RPL015", "RPL016",
    ]


def test_ingress_tier_is_gated_and_lints_clean():
    # The request-level ingress tier is new library surface: pin it into the
    # self-gate explicitly so a walker regression (or a future package move)
    # cannot silently drop it from test_package_lints_clean's coverage.
    from repro.lint import iter_python_files

    ingress_dir = PACKAGE_DIR / "ingress"
    files = list(iter_python_files([ingress_dir]))
    assert {f.name for f in files} >= {
        "adapter.py", "config.py", "generator.py", "request.py",
        "router.py", "stats.py",
    }
    findings = lint_paths([ingress_dir], path_rules=DEFAULT_PATH_RULES)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"reprolint findings in src/repro/ingress:\n{rendered}"


def test_package_files_actually_scanned():
    # Guard against the walker silently scanning nothing (e.g. a path typo
    # would make test_package_lints_clean vacuously green).
    from repro.lint import iter_python_files

    files = list(iter_python_files([PACKAGE_DIR]))
    assert len(files) > 50
    assert any(f.name == "tsallis.py" for f in files)
