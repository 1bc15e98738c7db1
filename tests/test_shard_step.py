"""Parity of the shard slot kernel with the per-edge kernel steps.

:class:`~repro.sim.kernel.ShardSlotKernel` steps a clean shard of plain
Algorithm-1 edges in one columnar pass per slot and draws each edge's pool
indices once per fed run of slots.  Its contract is the per-edge
reference: every slot's record equal to ``SlotOutcomes.from_rows`` of the
per-edge :meth:`~repro.sim.kernel.EdgeSlotKernel.step` calls, in values
and dtypes, and every kernel and policy left in the state those steps
leave.  Two kernel sets built from one config are bit-identical, so one
steps through the shard kernel and the other through the reference.
"""

from __future__ import annotations

import pickle
from collections import deque

import numpy as np
import pytest

from repro.core.model_selection import block_openings, open_blocks
from repro.faults.plan import FaultPlan, FeedbackLoss
from repro.obs import Tracer
from repro.serve import ServeConfig, WorkItem
from repro.serve.runtime import build_serve_kernels
from repro.sim.config import ScenarioConfig
from repro.sim.kernel import EdgeSlotKernel, ShardSlotKernel, SlotOutcomes

NUM_EDGES = 12
HORIZON = 60

#: Synthetic edges draw their download delays, so switch costs differ per edge.
CONFIG = ServeConfig(
    scenario=ScenarioConfig(
        dataset="synthetic", num_edges=NUM_EDGES, horizon=HORIZON, n_test=500, seed=4
    ),
    seed=4,
)


def kernels(config=CONFIG, **kwargs) -> list[EdgeSlotKernel]:
    return build_serve_kernels(config, **kwargs)[2]


class PerEdge:
    """The reference: the slot's batched openings, then one step per edge."""

    def __init__(self, edge_kernels: list[EdgeSlotKernel]) -> None:
        self.kernels = edge_kernels
        self.openings = block_openings(
            [kernel.policy for kernel in edge_kernels], by_slot=True
        )

    def step(self, t: int, items: list[WorkItem]) -> SlotOutcomes:
        if t in self.openings:
            open_blocks(self.openings[t])
        pairs = zip(self.kernels, items)
        return SlotOutcomes.from_rows(
            [kernel.step(t, item.count, shed=item.shed) for kernel, item in pairs]
        )


def fed_runs(seed: int, start: int = 0, stop: int = HORIZON):
    """Runs of 1-8 slots: counts 0-9 (about 15% zeros), about 10% shed.

    Each run also says how many of its last slots (0-2) wait for the next
    feed, as queued slots do in a worker.
    """
    rng = np.random.default_rng(seed)
    t = start
    while t < stop:
        length = min(int(rng.integers(1, 9)), stop - t)
        shape = (length, NUM_EDGES)
        counts = np.where(rng.random(shape) < 0.15, 0, rng.integers(1, 10, shape))
        yield t, counts, rng.random(shape) < 0.10, min(int(rng.integers(0, 3)), length)
        t += length


def assert_same_record(ours: SlotOutcomes, reference: SlotOutcomes) -> None:
    assert ours.t == reference.t
    for name in SlotOutcomes._fields[1:]:
        a, b = getattr(ours, name), getattr(reference, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert np.ascontiguousarray(a).tobytes() == b.tobytes(), name


def assert_same_state(ours: list, reference: list) -> None:
    for a, b in zip(ours, reference):
        assert a.data_rng.bit_generator.state == b.data_rng.bit_generator.state
        assert a.previous_model == b.previous_model
        pa, pb = a.policy, b.policy
        estimates = pa.cumulative_estimates(), pb.cumulative_estimates()
        assert estimates[0].tobytes() == estimates[1].tobytes()
        assert pa.selection_counts.tolist() == pb.selection_counts.tolist()
        assert pa.feedback_losses == pb.feedback_losses
        assert pa._open == pb._open


def step_runs(shard: ShardSlotKernel, reference: PerEdge, runs) -> None:
    """Feed each run at once and step its slots through both bodies.

    Slots a run holds over are stepped after the next run is fed, so
    earlier draws are still buffered when the next ones are drawn.
    Records must agree at every slot, and state whenever no slot waits.
    """
    waiting: deque = deque()

    def step_until(left: int) -> None:
        while len(waiting) > left:
            t, items = waiting.popleft()
            assert_same_record(shard.step(t, items), reference.step(t, items))
        if not waiting:
            assert_same_state(shard.kernels, reference.kernels)

    for start, counts, shed, held_over in runs:
        shard.feed(np.where(shed, 0, counts).sum(axis=0).tolist())
        for k, (row, marks) in enumerate(zip(counts.tolist(), shed.tolist())):
            items = [WorkItem(start + k, n, mark) for n, mark in zip(row, marks)]
            waiting.append((start + k, items))
        step_until(held_over)
    step_until(0)


def test_columnar_step_matches_the_per_edge_steps():
    shard = ShardSlotKernel(kernels())
    assert shard.columnar
    step_runs(shard, PerEdge(kernels()), fed_runs(seed=11))


def test_state_captured_under_one_body_continues_under_the_other():
    ours, theirs = kernels(), kernels()
    shard = ShardSlotKernel(ours)
    step_runs(shard, PerEdge(theirs), fed_runs(seed=12, stop=29))
    columnar_states = pickle.dumps(shard.state_dicts())
    per_edge_states = pickle.dumps([kernel.state_dict() for kernel in theirs])
    for kernel, state in zip(ours, pickle.loads(per_edge_states)):
        kernel.load_state(state)
    for kernel, state in pickle.loads(columnar_states).items():
        theirs[kernel].load_state(state)
    step_runs(ShardSlotKernel(ours), PerEdge(theirs), fed_runs(seed=13, start=29))


def test_state_capture_refuses_fed_but_unstepped_draws():
    shard = ShardSlotKernel(kernels())
    counts = [0] * NUM_EDGES
    counts[5] = 3
    shard.feed(counts)
    with pytest.raises(RuntimeError, match=r"edges \[5\]"):
        shard.state_dicts()


@pytest.mark.parametrize(
    "build",
    [
        lambda: kernels(tracer=Tracer()),
        lambda: kernels(CONFIG.with_overrides(label_delay=2)),
        lambda: kernels(CONFIG.with_overrides(selection="UCB")),
        lambda: kernels(faults=FaultPlan((FeedbackLoss(0.1),))),
    ],
    ids=["tracer", "label_delay", "UCB", "faults"],
)
def test_other_shards_take_the_per_edge_body(build, monkeypatch):
    calls = []
    step = EdgeSlotKernel.step

    def counted(kernel, t, count, **kwargs):
        calls.append((t, kernel.edge))
        return step(kernel, t, count, **kwargs)

    monkeypatch.setattr(EdgeSlotKernel, "step", counted)
    shard = ShardSlotKernel(build())
    assert not shard.columnar
    for t in range(6):
        shard.feed([2] * NUM_EDGES)
        shard.step(t, [WorkItem(t, 2)] * NUM_EDGES)
    assert len(calls) == 6 * NUM_EDGES
    assert shard.state_dicts().keys() == set(range(NUM_EDGES))
