"""The array admission of a shard's queues against per-burst reference queues.

:mod:`tests.reference_queue` keeps the per-edge FIFO the slot loop used to
feed one ``put`` per burst and drain one ``pop`` per edge-slot.  Through
random feeds and spans (1 to 6 edges, capacities 1 to 64, bursts of 0 to
100 events, oversized ones included, shed and block modes, depth carried
across spans), :class:`~repro.serve.queues.ShardAdmission` must queue,
shed and hold the same bursts with the same first-offer feed times, emit
the same trace events in the same order, return the same spans and keep
the same per-edge ``QueueStats`` as one reference queue per edge.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.obs.sinks import InMemorySink
from repro.serve.queues import ShardAdmission
from tests.reference_queue import ReferenceAdmission


@st.composite
def admission_cases(draw):
    edges = draw(st.integers(1, 6))
    capacity = draw(st.integers(1, 64))
    shed = draw(st.booleans())
    start = draw(st.integers(0, 3))
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        width = draw(st.integers(0, 4))
        size = edges * width
        # A byte mod 101 is a burst of 0..100 events.
        cells = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), np.uint8)
        columns = (cells % 101).astype(np.int64).reshape(edges, width)
        ops.append((columns if width else None, draw(st.integers(0, 4))))
    return edges, capacity, shed, start, ops


def queued(ours: ShardAdmission) -> dict[int, list[tuple]]:
    """Each edge's queued bursts as ``(slot, count, shed, fed_at)``."""
    return {
        e: [
            (ours.start + j, int(ours.counts[i, j]), bool(ours.shed[i, j]),
             float(ours.fed_at[i, j]))
            for j in range(int(ours.frontier[i] - ours.start))
        ]
        for i, e in enumerate(ours.edges)
    }


def held(ours: ShardAdmission) -> dict[int, float]:
    return {
        e: float(at) for e, at in zip(ours.edges, ours.held_at) if not math.isnan(at)
    }


def assert_same(ours: ShardAdmission, ref: ReferenceAdmission) -> None:
    assert queued(ours) == {
        e: [(item.t, item.count, item.shed, at) for item, at in queue.queued()]
        for e, queue in zip(ref.edges, ref.queues)
    }
    assert held(ours) == ref.held
    assert ours.stats() == ref.stats()


@settings(max_examples=150, deadline=None)
@given(case=admission_cases())
# Shed mode: an oversized burst enters the empty queue, the next is shed,
# and a take that leaves the marker queued lets a fitting burst in.
@example(case=(1, 4, True, 0, [(np.array([[50, 1, 1]]), 1), (None, 1)]))
# Block mode: the held burst keeps its first feed time across feeds.
@example(case=(2, 10, False, 0, [(np.array([[6, 6, 0], [0, 9, 9]]), 0), (None, 1)]))
def test_array_admission_matches_per_burst_queues(case):
    edges, capacity, shed, start, ops = case
    ids = tuple(range(3, 3 + edges))
    ours = ShardAdmission(ids, capacity, shed=shed, start=start)
    ref = ReferenceAdmission(ids, capacity, shed=shed, start=start)
    our_events, ref_events = InMemorySink(), InMemorySink()
    our_trace, ref_trace = Tracer([our_events]), Tracer([ref_events])
    t = start
    for step, (columns, span) in enumerate(ops):
        now = float(step)
        first = ours.feed(columns, now, our_trace)
        assert first == ref.feed(columns, now, ref_trace)
        assert our_events.events == ref_events.events
        assert_same(ours, ref)
        until = min(t + span, first)
        got = ours.take(until)
        want = ref.take(t, until)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert_same(ours, ref)
        t = until

