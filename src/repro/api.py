"""The one-call convenience API: :func:`repro.run`.

``repro.run`` collapses the build-scenario / construct-policies / simulate
pipeline into a single call for scripts and notebooks::

    import repro

    spec = repro.RunSpec(
        scenario=repro.ScenarioConfig(num_edges=10, horizon=160),
        selection="Ours",
        trading="Ours",
        seed=42,
    )
    result = repro.run(spec)

The one argument is a :class:`~repro.spec.RunSpec` — the typed,
JSON-round-trippable value identifying one run.  For common-random-number
comparisons, build the scenario once and pass it alongside each spec::

    scenario = spec.build_scenario()
    ours = repro.run(spec, scenario=scenario)
    rand = repro.run(spec.with_overrides(selection="Ran"), scenario=scenario)
"""

from __future__ import annotations

from repro.obs.tracer import Tracer
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

__all__ = ["run"]


def run(
    spec: RunSpec,
    *,
    scenario: Scenario | None = None,
    tracer: Tracer | None = None,
) -> SimulationResult:
    """Simulate one run in a single call.

    Pass a :class:`~repro.spec.RunSpec` (optionally with a pre-built
    ``scenario`` to share across specs for common-random-number
    comparisons); policy names resolve through the :mod:`repro.policies`
    registry and the seed drives policies and workload/data streams alike,
    so two calls with the same spec are bit-identical.  A programmatic
    :class:`~repro.obs.tracer.Tracer` overrides the spec's file-based trace
    options.  Anything but a :class:`RunSpec` raises :class:`TypeError`.
    """
    if not isinstance(spec, RunSpec):
        raise TypeError(f"expected a RunSpec, got {type(spec).__name__}")
    built = scenario if scenario is not None else spec.build_scenario()
    return Simulator.from_spec(built, spec, tracer=tracer).run()
