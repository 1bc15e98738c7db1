"""Whole-package API surface checks.

Every module must import cleanly, every ``__all__`` name must resolve, and
docstring examples must execute.  These tests catch broken exports and
stale documentation across the entire package at once.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def _iter_module_names():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


MODULE_NAMES = sorted(set(_iter_module_names()))


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_public_callables_have_docstrings(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export)
        if callable(obj) and getattr(obj, "__module__", "").startswith("repro"):
            assert obj.__doc__, f"{name}.{export} lacks a docstring"


def test_docstring_examples_execute():
    """Run doctests in the modules that carry executable examples."""
    for name in ("repro.utils.rng",):
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, f"doctest failures in {name}"
        assert result.attempted > 0


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


# ---------------------------------------------------------------------------
# RunSpec: the unified run surface (pins the 1.2 API redesign).


def _spec(**overrides):
    from repro.spec import RunSpec

    fields = dict(selection="Ours", trading="Ours", seed=3)
    fields.update(overrides)
    return RunSpec(**fields)


def test_runspec_is_exported_at_top_level():
    assert "RunSpec" in repro.__all__
    assert repro.RunSpec is importlib.import_module("repro.spec").RunSpec


def test_runspec_field_surface_is_pinned():
    """The spec's field names are API; additions must be deliberate."""
    import dataclasses

    names = [f.name for f in dataclasses.fields(repro.RunSpec)]
    assert names == [
        "scenario",
        "selection",
        "trading",
        "seed",
        "label",
        "label_delay",
        "live_inference",
        "faults",
        "trace_output",
        "trace_edge",
    ]


def test_runspec_json_round_trip_with_scenario_and_faults():
    from repro.faults import EdgeOutage, FaultPlan

    spec = _spec(
        scenario=repro.ScenarioConfig(num_edges=4, horizon=40),
        label="pinned",
        faults=FaultPlan((EdgeOutage(edge=0, start=2, end=5),)),
    )
    assert repro.RunSpec.from_json(spec.to_json()) == spec


def test_runspec_resolved_label_and_overrides():
    spec = _spec()
    assert spec.resolved_label == "Ours-Ours"
    assert spec.with_overrides(label="x").resolved_label == "x"
    assert spec.with_overrides(seed=9).seed == 9
    assert spec.seed == 3  # frozen: with_overrides copies


def test_runspec_rejects_unknown_serialized_fields():
    payload = _spec().to_dict()
    payload["mystery"] = 1
    with pytest.raises(ValueError, match="unknown run-spec fields"):
        repro.RunSpec.from_dict(payload)


def test_run_accepts_spec_without_warning():
    import warnings

    spec = _spec(scenario=repro.ScenarioConfig(num_edges=2, horizon=12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = repro.run(spec)
    assert result.label == "Ours-Ours"


def test_run_keyword_tail_warns_and_matches_spec_path():
    from repro.sim.io import result_digest

    config = repro.ScenarioConfig(num_edges=2, horizon=12)
    spec = _spec(scenario=config)
    via_spec = repro.run(spec)
    with pytest.warns(DeprecationWarning, match="repro.run keyword tail"):
        via_tail = repro.run(config, selection="Ours", trading="Ours", seed=3)
    assert result_digest(via_spec) == result_digest(via_tail)


def test_run_rejects_keywords_alongside_spec():
    with pytest.raises(TypeError, match="inside the RunSpec"):
        repro.run(_spec(), seed=1)


def test_simulator_from_names_warns_and_matches_from_spec():
    from repro.sim.io import result_digest

    spec = _spec(scenario=repro.ScenarioConfig(num_edges=2, horizon=12))
    scenario = spec.build_scenario()
    via_spec = repro.Simulator.from_spec(scenario, spec).run()
    with pytest.warns(DeprecationWarning, match="from_names is deprecated"):
        sim = repro.Simulator.from_names(
            scenario, "Ours", "Ours", seed=3
        )
    assert result_digest(sim.run()) == result_digest(via_spec)


def test_no_deprecated_keyword_tails_left_in_shipping_code():
    """No caller in src/ or benchmarks/ may use the deprecated tails."""
    import pathlib
    import re

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    pattern = re.compile(r"\.from_names\(|\.run_many\(")
    offenders = []
    for base in ("src", "benchmarks"):
        for path in sorted((root / base).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for match in pattern.finditer(text):
                line = text[: match.start()].count("\n") + 1
                snippet = text.splitlines()[line - 1].strip()
                offenders.append(f"{path.relative_to(root)}:{line}: {snippet}")
    assert not offenders, "deprecated keyword-tail calls remain:\n" + "\n".join(
        offenders
    )
