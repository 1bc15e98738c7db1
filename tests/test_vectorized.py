"""Scalar-vs-vectorized equivalence: the fast path must be bit-identical.

The vectorized engine (:mod:`repro.sim.vector`) re-executes the scalar
reference loop's arithmetic with the per-edge-slot overhead stripped out.
Its whole contract is *bit* equality — not closeness — so these tests
compare :func:`repro.sim.io.result_digest` (a SHA-256 over every result
array) across seeded random scenarios, policy families, fleet shapes, and
the live-inference path, plus the dispatch rules of
``Simulator.run(vectorized=...)``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import model_selection
from repro.core.tsallis import (
    tsallis_inf_probabilities,
    tsallis_inf_probabilities_batch,
)
from repro.faults import EdgeOutage, FaultPlan
from repro.policies import make_selection_policies, make_trading_policy
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from repro.sim.scenario import build_scenario
from repro.sim.simulator import Simulator
from repro.sim.vector import can_vectorize
from repro.spec import RunSpec
from repro.utils.rng import RngFactory


def _scenario(num_edges: int, horizon: int, *, seed: int = 0, num_models: int = 4):
    return build_scenario(
        ScenarioConfig(
            dataset="synthetic",
            num_edges=num_edges,
            horizon=horizon,
            num_models=num_models,
            n_test=400,
            seed=seed,
        )
    )


def _digests(scenario, spec: RunSpec) -> tuple[str, str]:
    """(scalar digest, vectorized digest) for fresh simulators of ``spec``."""
    scalar = Simulator.from_spec(scenario, spec).run(vectorized=False)
    fast = Simulator.from_spec(scenario, spec).run(vectorized=True)
    return result_digest(scalar), result_digest(fast)


# ---------------------------------------------------------------------------
# Property: bitwise-identical digests across seeded random scenarios.


@pytest.mark.parametrize("case", range(8))
def test_random_scenarios_are_bit_identical(case):
    """Randomized fleet shapes, scenario seeds, and run seeds all agree."""
    rng = np.random.default_rng(9000 + case)
    num_edges = int(rng.integers(1, 5))
    horizon = int(rng.integers(16, 72))
    scenario_seed = int(rng.integers(0, 1000))
    run_seed = int(rng.integers(0, 1000))
    scenario = _scenario(num_edges, horizon, seed=scenario_seed)
    spec = RunSpec(seed=run_seed)
    scalar, fast = _digests(scenario, spec)
    assert scalar == fast


@pytest.mark.parametrize("selection", ["Ours", "UCB", "EG", "Greedy", "TINF"])
def test_selection_families_are_bit_identical(selection):
    """Both the block-wise path ("Ours") and the generic per-slot fallback
    (everything that is not a plain ``OnlineModelSelection``) agree."""
    scenario = _scenario(3, 40, seed=7)
    spec = RunSpec(selection=selection, seed=11)
    scalar, fast = _digests(scenario, spec)
    assert scalar == fast


@pytest.mark.parametrize("trading", ["Ours", "Forecast", "TH", "Null"])
def test_trading_families_are_bit_identical(trading):
    scenario = _scenario(2, 32, seed=3)
    spec = RunSpec(trading=trading, seed=5)
    scalar, fast = _digests(scenario, spec)
    assert scalar == fast


def test_mixed_fleet_uses_per_slot_fallback_bit_identically():
    """A fleet mixing Algorithm-1 edges with another family still matches.

    ``from_spec`` builds homogeneous fleets, so splice policies from two
    registry families by hand — this exercises the vectorized engine's
    mixed-fleet branch (``blockwise=False``) where plain Algorithm-1
    members still batch their block openings.
    """
    scenario = _scenario(4, 36, seed=2)

    def build(seed: int) -> Simulator:
        factory = RngFactory(seed).child("mixed")
        ours = make_selection_policies("Ours", scenario, factory)
        ucb = make_selection_policies("UCB", scenario, factory)
        policies = [ours[0], ucb[1], ours[2], ucb[3]]
        trader = make_trading_policy("Ours", scenario, factory)
        return Simulator(scenario, policies, trader, run_seed=seed, label="mixed")

    scalar = build(13).run(vectorized=False)
    fast = build(13).run(vectorized=True)
    assert result_digest(scalar) == result_digest(fast)


def test_live_inference_is_bit_identical(mnist_scenario):
    """Live forward passes stay per edge-slot, so digests match exactly."""
    spec = RunSpec(live_inference=True, seed=4)
    scalar, fast = _digests(mnist_scenario, spec)
    assert scalar == fast


def test_class_mix_draws_are_bit_identical(mnist_scenario):
    """The per-slot two-stage class-mix draw path (mnist pools) agrees."""
    num_classes = int(np.max(mnist_scenario.y_pool)) + 1
    weights = np.random.default_rng(5).dirichlet(
        np.ones(num_classes), size=mnist_scenario.num_edges
    )
    scenario = dataclasses.replace(mnist_scenario, edge_class_weights=weights)
    spec = RunSpec(seed=6)
    scalar, fast = _digests(scenario, spec)
    assert scalar == fast


def test_blockwise_path_solves_once_per_block_round(monkeypatch):
    """Phase A batches its OMD solves by block round, not by slot.

    Round ``k`` opens block ``k`` of every edge, so a 64-edge fleet needs
    no more solves than its longest schedule has blocks.  Grouping opens by
    start slot instead would need one solve per distinct boundary slot —
    about three times as many on this fleet.
    """
    scenario = _scenario(64, 60, seed=0)
    spec = RunSpec(seed=3)
    calls: list[int] = []

    def batch(cumulative_losses, etas):
        calls.append(len(etas))
        return tsallis_inf_probabilities_batch(cumulative_losses, etas)

    def scalar(cumulative_losses, eta):
        calls.append(1)
        return tsallis_inf_probabilities(cumulative_losses, eta)

    monkeypatch.setattr(model_selection, "tsallis_inf_probabilities_batch", batch)
    monkeypatch.setattr(model_selection, "tsallis_inf_probabilities", scalar)
    sim = Simulator.from_spec(scenario, spec)
    schedules = [len(policy.schedule.lengths) for policy in sim.selection_policies]
    fast = sim.run(vectorized=True)
    assert len(calls) <= max(schedules)
    assert sum(calls) == sum(schedules)
    scalar_result = Simulator.from_spec(scenario, spec).run(vectorized=False)
    assert result_digest(fast) == result_digest(scalar_result)


def test_default_scenario_engines_agree():
    """The paper's default fleet (10 edges, 160 slots) under Ours/Ours."""
    spec = RunSpec(
        scenario=ScenarioConfig(dataset="synthetic", num_edges=10, horizon=160),
        selection="Ours",
        trading="Ours",
        seed=0,
    )
    scalar, fast = _digests(spec.build_scenario(), spec)
    assert scalar == fast


# ---------------------------------------------------------------------------
# Dispatch rules of Simulator.run(vectorized=...).


def test_default_dispatch_picks_fast_path_and_matches_scalar():
    scenario = _scenario(2, 24, seed=1)
    spec = RunSpec(seed=8)
    sim = Simulator.from_spec(scenario, spec)
    assert can_vectorize(sim)
    auto = sim.run()
    scalar = Simulator.from_spec(scenario, spec).run(vectorized=False)
    assert result_digest(auto) == result_digest(scalar)


@pytest.mark.parametrize(
    "overrides",
    [
        {"label_delay": 2},
        {
            "selection": "UCB",
            "faults": FaultPlan((EdgeOutage(edge=0, start=2, end=4),)),
        },
    ],
    ids=["label_delay", "faults"],
)
def test_unsupported_runs_decline_and_fall_back(overrides):
    """Per-slot machinery forces the scalar loop; forcing the fast path raises.

    A fault plan declines only on a fleet that is not plain Algorithm 1.
    """
    scenario = _scenario(2, 24, seed=1)
    spec = RunSpec(seed=8, **overrides)
    sim = Simulator.from_spec(scenario, spec)
    assert not can_vectorize(sim)
    with pytest.raises(ValueError, match="vectorized fast path"):
        sim.run(vectorized=True)
    # The default dispatch still works — it silently takes the scalar loop.
    result = Simulator.from_spec(scenario, spec).run()
    assert result.horizon == scenario.horizon


def test_faulted_algorithm1_fleet_qualifies_and_matches_scalar():
    """An Ours fleet under a fault plan takes the fast path, bit-identically."""
    scenario = _scenario(2, 24, seed=1)
    spec = RunSpec(seed=8, faults=FaultPlan((EdgeOutage(edge=0, start=2, end=4),)))
    sim = Simulator.from_spec(scenario, spec)
    assert can_vectorize(sim)
    auto = sim.run()
    scalar = Simulator.from_spec(scenario, spec).run(vectorized=False)
    assert result_digest(auto) == result_digest(scalar)


def test_tracing_declines_fast_path(tmp_path):
    scenario = _scenario(2, 24, seed=1)
    spec = RunSpec(seed=8, trace_output=str(tmp_path / "trace.jsonl"))
    sim = Simulator.from_spec(scenario, spec)
    assert not can_vectorize(sim)
    with pytest.raises(ValueError, match="vectorized fast path"):
        sim.run(vectorized=True)
    sim.tracer.close()
