"""Faulted runs on the vectorized fast path: bit-identical to the scalar loop.

A fault plan on a plain Algorithm-1 fleet takes the fast path.  Phase A
folds each block's lost slots through ``observe_block(..., lost=k)`` and
walks the edge's download retry machine from the block's first slot until
its model serves; Phase B steps the trading kernel, which holds the
injector, so market outages and trade rejections need nothing new.  The
contract is *bit* equality with ``run(vectorized=False)``, so every case
compares :func:`repro.sim.io.result_digest`: hypothesis draws plans over
every spec kind on small fleets, and fixed cases cover a window where the
whole fleet is offline, live inference and per-edge class mixes.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    GilbertElliottLoss,
    MarketOutage,
    TradeRejection,
)
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from repro.sim.scenario import build_scenario
from repro.sim.simulator import Simulator
from repro.sim.vector import can_vectorize
from repro.spec import RunSpec

KINDS = (
    "edge_outage",
    "feedback_loss",
    "gilbert_elliott_loss",
    "download_failure",
    "market_outage",
    "trade_rejection",
)


def _scenario(num_edges: int, horizon: int, seed: int):
    return build_scenario(
        ScenarioConfig(
            dataset="synthetic",
            num_edges=num_edges,
            horizon=horizon,
            num_models=4,
            n_test=300,
            seed=seed,
        )
    )


def _assert_engines_agree(scenario, spec: RunSpec):
    """Both engines give the same digest, and the plan takes the fast path."""
    sim = Simulator.from_spec(scenario, spec)
    assert can_vectorize(sim)
    with warnings.catch_warnings():
        # An all-offline slot's NaN accuracy must not come from a bare 0/0.
        warnings.simplefilter("error", RuntimeWarning)
        fast = sim.run(vectorized=True)
    scalar = Simulator.from_spec(scenario, spec).run(vectorized=False)
    assert result_digest(fast) == result_digest(scalar)
    return fast


@st.composite
def faulted_runs(draw):
    """A small fleet, a run seed and a plan drawn over every spec kind."""
    num_edges = draw(st.integers(1, 6))
    horizon = draw(st.integers(8, 120))
    probability = st.floats(0.0, 1.0)

    def window() -> tuple[int, int]:
        start = draw(st.integers(0, horizon - 1))
        return start, draw(st.integers(start + 1, horizon + 4))

    def scope() -> dict:
        start, end = window()
        return dict(
            edge=draw(st.none() | st.integers(0, num_edges - 1)),
            start=start,
            end=draw(st.none() | st.just(end)),
        )

    specs = []
    for kind in draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5)):
        if kind == "edge_outage":
            start, end = window()
            edge = draw(st.integers(0, num_edges - 1))
            specs.append(EdgeOutage(edge=edge, start=start, end=end))
        elif kind == "feedback_loss":
            specs.append(FeedbackLoss(probability=draw(probability), **scope()))
        elif kind == "gilbert_elliott_loss":
            specs.append(
                GilbertElliottLoss(
                    p_bad=draw(probability),
                    p_good=draw(probability),
                    loss_good=draw(probability),
                    loss_bad=draw(probability),
                    **scope(),
                )
            )
        elif kind == "download_failure":
            specs.append(
                DownloadFailure(
                    probability=draw(probability),
                    max_backoff=draw(st.integers(1, 8)),
                    **scope(),
                )
            )
        elif kind == "market_outage":
            start, end = window()
            specs.append(MarketOutage(start=start, end=end))
        else:
            start, end = window()
            specs.append(
                TradeRejection(
                    probability=draw(probability),
                    start=start,
                    end=draw(st.none() | st.just(end)),
                )
            )
    return (
        num_edges,
        horizon,
        draw(st.integers(0, 50)),
        draw(st.integers(0, 2**16)),
        FaultPlan(tuple(specs)),
    )


@settings(max_examples=40, deadline=None)
@given(faulted_runs())
def test_random_plans_are_bit_identical(case):
    num_edges, horizon, scenario_seed, run_seed, plan = case
    scenario = _scenario(num_edges, horizon, scenario_seed)
    _assert_engines_agree(scenario, RunSpec(seed=run_seed, faults=plan))


def test_all_offline_window_is_bit_identical():
    """A slot where every edge is down serves nothing: NaN accuracy, zero costs."""
    scenario = _scenario(3, 40, 4)
    plan = FaultPlan(
        tuple(EdgeOutage(edge=i, start=10, end=18) for i in range(3))
        + (DownloadFailure(probability=0.5, max_backoff=4),)
    )
    result = _assert_engines_agree(scenario, RunSpec(seed=9, faults=plan))
    assert np.isnan(result.accuracy[10:18]).all()
    assert np.isfinite(np.delete(result.accuracy, np.s_[10:18])).all()
    assert not result.arrivals[10:18].any()
    assert not result.emissions[10:18].any()


def test_retries_carried_across_blocks_are_bit_identical():
    """Downloads fail everywhere early on, so retry waits outlive blocks."""
    scenario = _scenario(4, 96, 2)
    plan = FaultPlan(
        (
            DownloadFailure(probability=1.0, max_backoff=8, end=30),
            DownloadFailure(probability=0.3, max_backoff=2, start=30),
            FeedbackLoss(probability=0.2),
        )
    )
    _assert_engines_agree(scenario, RunSpec(seed=1, faults=plan))


MNIST_PLAN = FaultPlan(
    (
        EdgeOutage(edge=1, start=3, end=9),
        FeedbackLoss(probability=0.3),
        DownloadFailure(probability=0.4, max_backoff=3),
        MarketOutage(start=5, end=12),
    )
)


def test_live_inference_under_faults_is_bit_identical(mnist_scenario):
    _assert_engines_agree(
        mnist_scenario, RunSpec(live_inference=True, seed=4, faults=MNIST_PLAN)
    )


def test_class_mixes_under_faults_are_bit_identical(mnist_scenario):
    """Per-edge class mixes draw indices slot by slot; offline slots draw too."""
    num_classes = int(np.max(mnist_scenario.y_pool)) + 1
    weights = np.random.default_rng(3).dirichlet(
        np.ones(num_classes), size=mnist_scenario.num_edges
    )
    scenario = dataclasses.replace(mnist_scenario, edge_class_weights=weights)
    _assert_engines_agree(scenario, RunSpec(seed=6, faults=MNIST_PLAN))
