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


def test_run_rejects_keywords_alongside_spec():
    with pytest.raises(TypeError, match="seed"):
        repro.run(_spec(), seed=1)
