"""Parity of the columnar Algorithm-1 engine with the per-edge kernel steps.

:class:`~repro.sim.kernel.ShardSlotKernel` steps a set of plain
Algorithm-1 edges over a span of slots in one call: one pool draw per edge,
one batched solve per round of block openings, one ``observe_block`` per
piece of a block.  Its contract is the per-edge reference: the span's record
equal, slot by slot, to ``SlotOutcomes.from_rows`` of the per-edge
:meth:`~repro.sim.kernel.EdgeSlotKernel.step` calls, in values and dtypes,
and every kernel and policy left in the state those steps leave, at any
partition of the horizon into spans.  Two kernel sets built from one config
are bit-identical, so one steps through the engine and the other through
the reference.  An all-lost span, whose rows a respawned serve worker
reports as offline, is held the same way to per-slot
:meth:`~repro.sim.kernel.EdgeSlotKernel.step_offline` calls.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.model_selection import block_openings, open_blocks
from repro.faults.plan import (
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    MarketOutage,
    TradeRejection,
)
from repro.obs import Tracer
from repro.serve import ServeConfig
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

#: The five-fault plan of the sharded parity tests, with a second outage
#: across more block boundaries: offline, feedback-lost and failed-download
#: rows, plus market faults the edges never see.
FAULTS = FaultPlan(
    (
        EdgeOutage(edge=0, start=10, end=20),
        EdgeOutage(edge=7, start=3, end=41),
        FeedbackLoss(0.1),
        DownloadFailure(0.2),
        MarketOutage(15, 25),
        TradeRejection(0.1),
    )
)


def kernels(config=CONFIG, **kwargs) -> list[EdgeSlotKernel]:
    return build_serve_kernels(config, **kwargs)[2]


class PerEdge:
    """The reference: each slot's batched openings, then one step per edge."""

    def __init__(self, edge_kernels: list[EdgeSlotKernel]) -> None:
        self.kernels = edge_kernels
        self.openings = block_openings([kernel.policy for kernel in edge_kernels])

    def step(self, t: int, counts, shed) -> SlotOutcomes:
        if t in self.openings:
            open_blocks(self.openings[t])
        rows = zip(self.kernels, counts.tolist(), shed.tolist())
        return SlotOutcomes.from_rows(
            [kernel.step(t, count, shed=mark) for kernel, count, mark in rows]
        )


class Offline:
    """The reference for lost spans: one ``step_offline`` per edge-slot."""

    def __init__(self, edge_kernels: list[EdgeSlotKernel]) -> None:
        self.kernels = edge_kernels

    def step(self, t: int, counts, shed) -> SlotOutcomes:
        assert shed.all()
        rows = zip(self.kernels, counts.tolist())
        return SlotOutcomes.from_rows(
            [kernel.step_offline(t, count) for kernel, count in rows]
        )


class Replay:
    """A shard's all-lost spans, rows reported offline as a respawn reports them."""

    def __init__(self, shard: ShardSlotKernel) -> None:
        self.shard = shard
        self.kernels = shard.kernels

    def step(self, a: int, counts, shed) -> SlotOutcomes:
        record = self.shard.step(a, counts, shed)
        return record._replace(offline=record.shed, shed=record.offline)


def workload(seed: int):
    """Counts 0-9 (about 15% zeros) and about 10% shed rows, ``(edges, slots)``."""
    rng = np.random.default_rng(seed)
    shape = (NUM_EDGES, HORIZON)
    counts = np.where(rng.random(shape) < 0.15, 0, rng.integers(1, 10, shape))
    return counts, rng.random(shape) < 0.10


def partition(seed: int, start: int = 0, stop: int = HORIZON) -> list[tuple[int, int]]:
    """Random spans tiling ``[start, stop)``, of any length from one slot up."""
    rng = np.random.default_rng(seed)
    cuts = np.flatnonzero(rng.random(stop - start - 1) < rng.uniform(0.05, 0.9))
    bounds = [start, *(start + 1 + cuts).tolist(), stop]
    return list(zip(bounds, bounds[1:]))


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
        assert (a.retry_wait, a.retry_backoff, a.retry_attempts) == (
            b.retry_wait, b.retry_backoff, b.retry_attempts,
        )
        pa, pb = a.policy, b.policy
        estimates = pa.cumulative_estimates(), pb.cumulative_estimates()
        assert estimates[0].tobytes() == estimates[1].tobytes()
        assert pa.selection_counts.tolist() == pb.selection_counts.tolist()
        assert pa.feedback_losses == pb.feedback_losses
        assert pa._open == pb._open
        assert len(pa.probability_history) == len(pb.probability_history)


def step_spans(engine, reference, counts, shed, spans) -> None:
    """Step each span through both bodies; compare every slot and the state."""
    for a, b in spans:
        record = engine.step(a, counts[:, a:b], shed[:, a:b])
        assert (record.t, record.num_slots) == (a, b - a)
        for part, t in zip(record.split(), range(a, b)):
            assert_same_record(part, reference.step(t, counts[:, t], shed[:, t]))
        assert_same_state(engine.kernels, reference.kernels)


def test_columnar_step_matches_the_per_edge_steps():
    for faults in (None, FAULTS):
        for seed in range(5):
            counts, shed = workload(seed)
            spans = [(0, HORIZON)] if seed == 0 else partition(seed)
            engine = ShardSlotKernel(kernels(faults=faults))
            assert engine.columnar
            step_spans(engine, PerEdge(kernels(faults=faults)), counts, shed, spans)


def test_the_fault_plan_reaches_every_row_kind():
    # The parity test is only as strong as its rows: under FAULTS its
    # workloads hold offline, feedback-lost, retried and shed-while-retrying
    # rows.
    offline = lost = retried = shed_while_retrying = 0
    for seed in range(5):
        counts, shed = workload(seed)
        reference = PerEdge(kernels(faults=FAULTS))
        injector = reference.kernels[0].injector
        for t in range(HORIZON):
            waiting = [kernel.retry_wait > 0 for kernel in reference.kernels]
            shed_while_retrying += int((np.array(waiting) & shed[:, t]).sum())
            record = reference.step(t, counts[:, t], shed[:, t])
            served = ~(record.offline | record.shed)[:, 0]
            offline += int(record.offline.sum())
            lost += int((injector.feedback_lost_mask[t] & served).sum())
            retried += sum(kernel.retry_attempts > 0 for kernel in reference.kernels)
    assert offline and lost and retried and shed_while_retrying


def test_state_captured_under_one_body_continues_under_the_other():
    # Cut mid-block: each body's captured state continues under the other,
    # the engine carrying the open blocks the per-edge steps left, and the
    # per-edge steps those the engine left.
    cut = 29
    for faults in (None, FAULTS):
        counts, shed = workload(7)
        ours, theirs = kernels(faults=faults), kernels(faults=faults)
        engine = ShardSlotKernel(ours)
        step_spans(engine, PerEdge(theirs), counts, shed, partition(7, stop=cut))
        assert any(
            cut not in kernel.policy.schedule.starts.tolist() for kernel in ours
        )
        columnar_states = pickle.dumps(engine.state_dicts())
        per_edge_states = pickle.dumps([kernel.state_dict() for kernel in theirs])
        for kernel, state in zip(ours, pickle.loads(per_edge_states)):
            kernel.load_state(state)
        for edge, state in pickle.loads(columnar_states).items():
            theirs[edge].load_state(state)
        step_spans(
            ShardSlotKernel(ours), PerEdge(theirs), counts, shed,
            partition(8, start=cut),
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda: kernels(faults=FAULTS),
        lambda: kernels(faults=FAULTS, tracer=Tracer()),
    ],
    ids=["engine", "per-edge"],
)
def test_lost_spans_match_the_step_offline_calls(build):
    # A respawned worker replays its missed slots as all-lost spans and
    # reports their rows offline.  From a mid-block cut on faulted kernels,
    # both bodies must leave the state per-slot ``step_offline`` calls
    # leave, in rows equal to theirs.
    cut = 9
    counts, shed = workload(5)
    ours, theirs = build(), build()
    shard = ShardSlotKernel(ours)
    assert shard.columnar == (not ours[0].tracer.enabled)
    step_spans(shard, PerEdge(theirs), counts, shed, partition(5, stop=cut))
    assert any(cut not in kernel.policy.schedule.starts.tolist() for kernel in ours)
    assert any(kernel.retry_wait > 0 for kernel in ours)
    lost = np.ones_like(shed)
    step_spans(Replay(shard), Offline(theirs), counts, lost, partition(6, start=cut))


@pytest.mark.parametrize(
    "build",
    [
        lambda: kernels(tracer=Tracer()),
        lambda: kernels(CONFIG.with_overrides(label_delay=2)),
        lambda: kernels(CONFIG.with_overrides(selection="UCB")),
    ],
    ids=["tracer", "label_delay", "UCB"],
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
    record = shard.step(0, np.full((NUM_EDGES, 6), 2), np.zeros((NUM_EDGES, 6), bool))
    assert record.num_slots == 6
    # Slot by slot, each edge in order.
    assert calls == [(t, e) for t in range(6) for e in range(NUM_EDGES)]
    assert shard.state_dicts().keys() == set(range(NUM_EDGES))


def test_faulted_shards_run_the_engine(monkeypatch):
    calls = []
    monkeypatch.setattr(EdgeSlotKernel, "step", lambda *args, **kw: calls.append(1))
    engine = ShardSlotKernel(kernels(faults=FAULTS))
    assert engine.columnar
    counts, shed = workload(3)
    engine.step(0, counts, shed)
    assert calls == []
