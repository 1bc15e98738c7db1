"""The columnar ingress router against the per-request reference router.

:mod:`tests.reference_router` keeps a router that parks one heap tuple per
request and fronts one edge.  Over random SLA mixes, spiky or ramping prices
and router knobs, in both regimes and under every admission policy, a router
over 1 to 6 edges with independent arrivals (quiet slots included) must
give every edge the released count, provisional stats and queue depth of
that edge's own reference router on every slot.  It must do so also after
a mid-run rebuild from its per-edge exports, and after a rebuild from the
states the references wrote in their per-request layout (the layout
version-2 snapshots carry).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ingress import IngressConfig, IngressRouter, SlaClass
from repro.ingress.config import ADMISSION_POLICIES, FORECASTERS
from tests.reference_router import IngressRouter as ReferenceRouter

#: Flat prices with spikes in both directions, plus arbitrary values.
PRICES = st.one_of(
    st.sampled_from([1.0, 1.0, 1.05, 0.5, 2.0, 10.0]),
    st.floats(min_value=0.1, max_value=20.0),
)


@st.composite
def router_cases(draw):
    num_classes = draw(st.integers(1, 4))
    classes = tuple(
        SlaClass(
            name=f"c{i}",
            share=1.0 / num_classes,
            deadline_slots=draw(st.integers(0, 10)),
            priority=draw(st.integers(0, 2)),
            deferrable=draw(st.booleans()),
        )
        for i in range(num_classes)
    )
    config = IngressConfig(
        classes=classes,
        deferral=draw(st.booleans()),
        admission=draw(st.sampled_from(ADMISSION_POLICIES)),
        queue_capacity=draw(st.integers(0, 8)),
        slot_capacity=draw(st.integers(0, 10)),
        lookahead=draw(st.integers(1, 10)),
        defer_margin=draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])),
        forecaster=draw(st.sampled_from(FORECASTERS)),
    )
    horizon = draw(st.integers(1, 30))
    edges = draw(st.integers(1, 6))
    size = horizon * edges * num_classes
    # One byte string is far cheaper to draw than an integer per cell; a
    # byte mod 13 is a count in 0..12.
    cells = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), np.uint8)
    counts = (cells % 13).reshape(horizon, edges, num_classes)
    # A quiet slot offers nothing on any edge; the router must still see
    # its price.
    counts[draw(st.lists(st.booleans(), min_size=horizon, max_size=horizon))] = 0
    # Independent prices, or a ramp: a trend bends AR(1) forecasts with the
    # look-ahead, so one class's cohorts with different windows can differ.
    ramp = st.builds(
        lambda start, step: [max(start + step * t, 0.1) for t in range(horizon)],
        st.floats(0.1, 20.0),
        st.floats(-2.0, 2.0),
    )
    prices = draw(st.one_of(st.lists(PRICES, min_size=horizon, max_size=horizon), ramp))
    cut = draw(st.integers(0, horizon - 1))
    return config, horizon, counts, prices, cut


#: A falling price under AR(1) makes the forecasts fall with the look-ahead:
#: a short-window class released after a long-window one must be judged on
#: its own window, not on the lowest forecast computed so far in the slot.
FALLING_PRICE = (
    IngressConfig(
        classes=(
            SlaClass(name="far", share=0.5, deadline_slots=6, priority=1,
                     deferrable=True),
            SlaClass(name="near", share=0.5, deadline_slots=2, priority=0,
                     deferrable=True),
        ),
        defer_margin=0.2,
        forecaster="ar1",
    ),
    12,
    [[[1, 1]]] * 12,
    [20.0 - 1.5 * t for t in range(12)],
    6,
)


#: FIFO ``deadline-shed`` at a deadline tie: the later cell goes first.
FIFO_SHED_TIE = (
    IngressConfig(
        classes=(
            SlaClass(name="a", share=0.5, deadline_slots=3, priority=0,
                     deferrable=False),
            SlaClass(name="b", share=0.5, deadline_slots=1, priority=0,
                     deferrable=False),
        ),
        deferral=False,
        admission="deadline-shed",
        queue_capacity=2,
        slot_capacity=1,
    ),
    3,
    [[[0, 2]], [[1, 2]], [[0, 0]]],
    [1.0, 1.0, 1.0],
    2,
)


#: Slot capacity fills by class priority first: the newer high-priority
#: request goes before the older low-priority one.
CLASS_BEFORE_ARRIVAL = (
    IngressConfig(
        classes=(
            SlaClass(name="hi", share=0.5, deadline_slots=5, priority=1,
                     deferrable=False),
            SlaClass(name="lo", share=0.5, deadline_slots=5, priority=0,
                     deferrable=False),
        ),
        slot_capacity=1,
    ),
    3,
    [[[0, 2]], [[1, 0]], [[0, 0]]],
    [1.0, 1.0, 1.0],
    2,
)


#: A quiet slot's price spike still moves the forecast: without it the
#: slot-2 arrivals would wait for a cheaper slot.
QUIET_SPIKE = (
    IngressConfig(
        classes=(
            SlaClass(name="batch", share=1.0, deadline_slots=4, priority=0,
                     deferrable=True),
        ),
    ),
    4,
    [[[1]], [[0]], [[2]], [[0]]],
    [1.0, 100.0, 10.0, 1.0],
    3,
)


def rebuilt(config, horizon, states):
    router = IngressRouter(config, horizon, rows=len(states))
    for row, state in enumerate(states):
        router.load_state(state, row)
    return router


@settings(max_examples=200, deadline=None)
@given(router_cases())
@example(FALLING_PRICE)
@example(FIFO_SHED_TIE)
@example(CLASS_BEFORE_ARRIVAL)
@example(QUIET_SPIKE)
def test_cohort_router_matches_the_per_request_reference(case):
    config, horizon, counts, prices, cut = case
    edges = len(counts[0])
    references = [ReferenceRouter(e, config, horizon) for e in range(edges)]
    shard = IngressRouter(config, horizon, rows=edges)
    shards = [shard]
    for t in range(horizon):
        if t == cut:
            # Rebuild the shard from its per-edge exports and from the
            # references' per-request states, then run all three on.
            shards.append(
                rebuilt(config, horizon, [shard.state_dict(e) for e in range(edges)])
            )
            shards.append(
                rebuilt(config, horizon, [ref.state_dict() for ref in references])
            )
        arrivals = np.array(counts[t])
        expected = [
            ref.step(t, arrivals[e], prices[t]) for e, ref in enumerate(references)
        ]
        depths = [ref.depth for ref in references]
        for candidate in shards:
            stats = candidate.route(t, arrivals, prices[t])
            for e, (released, provisional) in enumerate(expected):
                assert int(stats.released[e]) == released, (t, e)
                assert stats.row(e, config.class_names) == provisional, (t, e)
            assert candidate.depth.tolist() == depths, t
    assert not any(ref.depth for ref in references)
