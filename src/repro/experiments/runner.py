"""Run orchestration shared by all experiments.

Policy construction is delegated to the :mod:`repro.policies` registry
(``make_selection_policies`` / ``make_trading_policy`` are re-exported here
for backward compatibility, as are the ``SELECTION_NAMES`` /
``TRADING_NAMES`` views).  What remains in this module is run orchestration:
one combination (:func:`run_combo`), seed sweeps (:func:`run_many`), and the
paper's two-pass offline reference (:func:`run_offline`).

Seed sweeps run through the :class:`~repro.experiments.engine.SweepEngine`
of the innermost :func:`~repro.experiments.engine.use_engine` block, which
parallelizes and caches every figure experiment at once.  Outside such a
block they run serially and uncached.
"""

from __future__ import annotations

from repro.experiments.engine import active_engine
from repro.faults.plan import FaultPlan
from repro.obs.tracer import Tracer
from repro.offline import (
    FixedSelection,
    NullTrading,
    PrecomputedTrading,
    best_fixed_models,
    solve_offline_trading,
)
from repro.policies import (
    SELECTION_NAMES,
    TRADING_NAMES,
    make_selection_policies,
    make_trading_policy,
)
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

__all__ = [
    "SELECTION_NAMES",
    "TRADING_NAMES",
    "make_selection_policies",
    "make_trading_policy",
    "run_combo",
    "run_many",
    "run_offline",
    "run_offline_many",
]


def run_combo(
    scenario: Scenario,
    selection: str,
    trading: str,
    seed: int,
    label: str | None = None,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
) -> SimulationResult:
    """Simulate one (selection, trading) combination on ``scenario``."""
    spec = RunSpec(
        selection=selection,
        trading=trading,
        seed=seed,
        label=label,
        faults=faults if faults is not None else FaultPlan(),
    )
    return Simulator.from_spec(scenario, spec, tracer=tracer).run()


def run_many(
    scenario: Scenario,
    selection: str,
    trading: str,
    seeds: list[int],
    label: str | None = None,
) -> list[SimulationResult]:
    """Run a combination once per seed (common random numbers per seed).

    Execution goes through the engine of the innermost ``use_engine``
    block, so callers get parallelism and result caching without changing
    this call site.  The returned list aligns with ``seeds`` and is
    bit-identical across worker counts and cache hits.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    specs = [
        RunSpec(selection=selection, trading=trading, seed=int(s), label=label)
        for s in seeds
    ]
    return active_engine().run_specs(scenario, specs)


def run_offline(
    scenario: Scenario, seed: int, faults: FaultPlan | None = None
) -> SimulationResult:
    """The paper's "Offline" reference.

    Pass 1 fixes the posterior-best model per edge and records emissions
    with no trading; the offline trading LP is solved exactly on those
    emissions; pass 2 replays the same run with the optimal trade plan.
    Both passes share the seed, so arrivals and data draws are identical.
    When a fault plan is given, both passes run under it — the offline
    reference then bounds what clairvoyant trading achieves on the same
    degraded infrastructure.
    """
    models = best_fixed_models(scenario.expected_losses, scenario.latencies)
    selection = [FixedSelection(scenario.num_models, int(m)) for m in models]
    pass1 = Simulator(
        scenario,
        selection,
        NullTrading(),
        run_seed=seed,
        label="Offline-pass1",
        faults=faults,
    ).run()
    plan = solve_offline_trading(
        pass1.emissions,
        scenario.prices,
        scenario.config.carbon_cap_kg,
        scenario.trade_bound,
    )
    selection = [FixedSelection(scenario.num_models, int(m)) for m in models]
    return Simulator(
        scenario,
        selection,
        PrecomputedTrading(plan.buy, plan.sell),
        run_seed=seed,
        label="Offline",
        faults=faults,
    ).run()


def run_offline_many(
    scenario: Scenario, seeds: list[int]
) -> list[SimulationResult]:
    """Run the "Offline" reference once per seed, through the sweep engine.

    The engine treats each seed as an ``offline`` cell, so offline reference
    runs get the same parallelism and result caching as the online
    combinations.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    return active_engine().run_offline_many(scenario, seeds)
