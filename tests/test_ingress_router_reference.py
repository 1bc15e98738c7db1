"""The cohort ingress router against the per-request reference router.

:mod:`tests.reference_router` keeps a router that parks one heap tuple per
request.  Over random SLA mixes, arrivals, spiky prices and router knobs,
in both regimes and under every admission policy, the cohort router must
give the same released count, provisional stats and queue depth on every
slot.  It must do so also after a mid-run ``state_dict``/``load_state``
round trip, and after loading a state the reference wrote in its
per-request layout (the layout version-2 snapshots carry).
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
    slot_counts = st.lists(
        st.integers(0, 12), min_size=num_classes, max_size=num_classes
    )
    counts = draw(st.lists(slot_counts, min_size=horizon, max_size=horizon))
    prices = draw(st.lists(PRICES, min_size=horizon, max_size=horizon))
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
    [[1, 1]] * 12,
    [20.0 - 1.5 * t for t in range(12)],
    6,
)


@settings(max_examples=200, deadline=None)
@given(router_cases())
@example(FALLING_PRICE)
def test_cohort_router_matches_the_per_request_reference(case):
    config, horizon, counts, prices, cut = case
    reference = ReferenceRouter(0, config, horizon)
    router = IngressRouter(0, config, horizon)
    routers = [router]
    for t in range(horizon):
        if t == cut:
            # Resume one copy from the cohort state and one from the
            # reference's per-request state, then run all three on.
            for state in (router.state_dict(), reference.state_dict()):
                restored = IngressRouter(0, config, horizon)
                restored.load_state(state)
                routers.append(restored)
        arrivals = np.array(counts[t])
        expected = reference.step(t, arrivals, prices[t])
        for candidate in routers:
            assert candidate.step(t, arrivals, prices[t]) == expected, t
            assert candidate.depth == reference.depth, t
    assert reference.depth == 0
