"""Plain-data edge state: a restore continues bit-identically.

A 4-edge shard steps ``CUT`` slots; its kernel and feed states go through
``pickle`` and load into a freshly built kernel set, which steps the rest.
Its records, and every policy's and kernel's learning state, must equal an
uninterrupted shard's, for every selection policy and stream adapter, under
ingress, label delay and a fault plan.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data.streams import ArrivalProcess
from repro.faults.plan import DownloadFailure, EdgeOutage, FaultPlan, FeedbackLoss
from repro.ingress import IngressConfig
from repro.obs import JsonlSink, Tracer
from repro.obs.events import ArrivalEvent
from repro.policies import SELECTION_NAMES
from repro.serve import ServeConfig
from repro.serve.adapters import ColumnFeed, PoissonAdapter
from repro.serve.runtime import build_serve_kernels, make_feed
from repro.sim.config import ScenarioConfig
from repro.sim.kernel import ShardSlotKernel
from repro.utils.rng import spawn_generator

HORIZON, CUT, EDGES = 24, 11, 4
SCENARIO = ScenarioConfig(
    dataset="synthetic", num_edges=EDGES, horizon=HORIZON, n_test=200, seed=5
)
FAULTS = FaultPlan(
    (EdgeOutage(edge=1, start=6, end=15), FeedbackLoss(0.2), DownloadFailure(0.3))
)
#: Every third edge-slot's payload is shed at the queue.
SHED = np.arange(EDGES * HORIZON).reshape(EDGES, HORIZON) % 3 == 1


@pytest.fixture(scope="module")
def replay_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("replay") / "arrivals.jsonl"
    tracer = Tracer([JsonlSink(path)])
    counts = np.random.default_rng(5).integers(0, 9, size=(HORIZON, EDGES))
    for (t, edge), count in np.ndenumerate(counts):
        tracer.emit(ArrivalEvent(t=t, edge=edge, count=int(count)))
    tracer.close()
    return str(path)


def build(config, faults):
    _, adapters, kernels, _ = build_serve_kernels(config, faults=faults)
    shard = ShardSlotKernel(kernels)
    return shard, make_feed(config, kernels[0].scenario, adapters, range(EDGES))


def step(shard, feed, a, b):
    record = shard.step(a, feed.draw(a, b), SHED[:, a:b])
    if hasattr(feed, "resolve"):
        feed.resolve(record)
    return record


def learned(shard):
    """What each edge has learned: its policy's and kernel's mutable state."""
    out = []
    for kernel in shard.kernels:
        policy = kernel.policy
        out.append(
            (
                [row.tolist() for row in getattr(policy, "probability_history", [])],
                np.asarray(getattr(policy, "selection_counts", [])).tolist(),
                policy.feedback_losses,
                (kernel.retry_wait, kernel.retry_backoff, kernel.retry_attempts),
                list(kernel.pending_feedback),
                repr(policy.state_dict()),
            )
        )
    return out


CASES = [
    *(
        pytest.param(name, adapter, {}, None, id=f"{name}-{adapter}")
        for name in sorted(SELECTION_NAMES)
        for adapter in ("poisson", "shape", "replay")
    ),
    pytest.param(
        "Ours", "poisson", {"ingress": IngressConfig(slot_capacity=3).to_dict()},
        None, id="ingress",
    ),
    pytest.param("Ours", "poisson", {"label_delay": 2}, None, id="label-delay"),
    pytest.param("Ours", "poisson", {}, FAULTS, id="faults"),
]


@pytest.mark.parametrize("selection,adapter,overrides,faults", CASES)
def test_restore_continues_bit_identically(
    selection, adapter, overrides, faults, replay_log
):
    config = ServeConfig(
        scenario=SCENARIO, seed=5, selection=selection, adapter=adapter,
        replay_log=replay_log if adapter == "replay" else None,
        shape="spike", shape_total_events=EDGES * HORIZON * 4, **overrides,
    )
    whole, whole_feed = build(config, faults)
    head, head_feed = build(config, faults)
    expected = [step(whole, whole_feed, 0, CUT), step(whole, whole_feed, CUT, HORIZON)]
    records = [step(head, head_feed, 0, CUT)]
    saved = pickle.dumps((head.state_dicts(), head_feed.state_dict()))
    tail, tail_feed = build(config, faults)
    kernel_states, feed_states = pickle.loads(saved)
    for kernel in tail.kernels:
        kernel.load_state(kernel_states[kernel.edge])
    tail_feed.load_state(feed_states)
    records.append(step(tail, tail_feed, CUT, HORIZON))
    for got, want in zip(records, expected):
        for name, column in zip(got._fields, got):
            np.testing.assert_array_equal(column, getattr(want, name), err_msg=name)
    assert learned(tail) == learned(whole)


@pytest.mark.parametrize("field", ["horizon", "switch_cost", "num_models"])
def test_load_state_refuses_another_problem(field):
    config = ServeConfig(scenario=SCENARIO, seed=5)
    shard, _ = build(config, None)
    kernel = shard.kernels[0]
    state = kernel.state_dict()
    state["policy"] = {**state["policy"], field: state["policy"][field] + 1}
    with pytest.raises(ValueError, match=field):
        kernel.load_state(state)


def test_poisson_adapter_state_does_not_grow_with_the_horizon():
    # The state is the stream's bit-generator state; the horizon-long
    # means come from the config.
    def pickled_size(horizon):
        feed = ColumnFeed(
            {
                e: PoissonAdapter(
                    e,
                    ArrivalProcess(np.full(horizon, 3.0), spawn_generator(3, f"a{e}")),
                )
                for e in range(64)
            }
        )
        feed.draw(0, 8)
        return len(pickle.dumps(feed.state_dict()))

    assert pickled_size(500) == pickled_size(2000)
