"""Kill-and-restart crossed with the serve tier's features.

The kill-and-restart column of the invariant matrix: each case runs
scenario A (seed 0, ``Ours-Ours``) lockstep under the restart policy,
kills a worker mid-run, and pins the healed run's digest, its one restart
and its books: every one of the 4,867 events in is served, shed or
offline.  The restart checkpoint cadence only changes how many slots a
respawn's catch-up re-steps, so the cases at several cadences share one
digest.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import DownloadFailure, EdgeOutage, FaultPlan, FeedbackLoss
from repro.obs import Tracer
from repro.serve import Rebalance, ReconfigPlan, ShardRuntime
from repro.sim.io import result_digest
from tests.test_serve_shard import FAST, RESTART, SLOT_CAPACITY_4, kill_plan, shard_config

#: Events scenario A offers over its 40-slot horizon at seed 0.
EVENTS = 4867

FAULTS = FaultPlan((
    EdgeOutage(edge=1, start=5, end=13),
    FeedbackLoss(probability=0.2),
    DownloadFailure(probability=0.3),
))

THREE_WORKERS = "895bdeb516738e5e0cda8bfbab2acf1cc597793574052fcc634fb9bb14208d3c"
LABEL_DELAY = "a93c2e12164599d5e559bfb6006e508dde08f03b2a99658c2cd19fbc4c81ab8a"
FAULTED = "faad50696fec9e29c4d5b9cfe09158c0e09742a7c0b831c2e31385edb8de7952"
INGRESS = "98e88e0442bfcb69f28470b453814e9e122671b05d39a6669f907614d2b6ff6d"
UCB = "e250dc3434d5d432ce9e873f6b12a58d1812cd35f873ac6f9f0e2b2d6ab0192d"
REBALANCED = "86c58f523cc3e5b1facb6f759624213394f4a36a41c128270a8334b7b56eb7ec"

#: ``(config overrides, runtime keywords, digest)``; the kill is worker 1's
#: at slot 10 unless the keywords name another.
CASES = [
    *(
        pytest.param(
            dict(num_workers=3, restart_state_every=every), {}, THREE_WORKERS,
            id=f"3-workers-every-{every}",
        )
        for every in (1, 5, 8, 1000)
    ),
    *(
        pytest.param(
            dict(num_workers=2, label_delay=3, restart_state_every=every), {},
            LABEL_DELAY, id=f"label-delay-every-{every}",
        )
        for every in (1, 1000)
    ),
    *(
        pytest.param(
            dict(num_workers=2, restart_state_every=every), dict(faults=FAULTS),
            FAULTED, id=f"faults-every-{every}",
        )
        for every in (1, 1000)
    ),
    pytest.param(
        dict(num_workers=2, ingress=SLOT_CAPACITY_4), {}, INGRESS, id="ingress"
    ),
    pytest.param(dict(num_workers=2, selection="UCB"), {}, UCB, id="UCB"),
    pytest.param(
        dict(num_workers=1),
        dict(
            reconfig=ReconfigPlan((Rebalance(at=8, num_workers=2),)),
            chaos=kill_plan(1, 12),
        ),
        REBALANCED,
        id="rebalance-1-to-2",
    ),
]


@pytest.mark.parametrize("overrides,kwargs,digest", CASES)
def test_a_killed_worker_heals_to_the_pinned_run(overrides, kwargs, digest):
    tracer = Tracer()
    runtime = ShardRuntime(
        shard_config(**overrides, **RESTART),
        tracer=tracer,
        **{"chaos": kill_plan(1, 10), **kwargs},
        **FAST,
    )
    assert result_digest(runtime.run()) == digest
    counters = tracer.metrics_snapshot()["counters"]
    assert counters["serve/restarts"] == 1
    accounted = (
        counters["serve/events_served"]
        + counters.get("serve/events_shed", 0)
        + counters.get("serve/events_dropped_offline", 0)
    )
    assert counters["serve/events_in"] == accounted == EVENTS
    if runtime.ingress is not None:
        books = runtime.ingress.summary()
        assert books["requests_in"] == books["requests_released"] == EVENTS


def test_pulled_checkpoints_land_in_the_book():
    # Without a death, the parent's restart requests alone fill the book:
    # every edge is as of 32, the last 8-slot boundary below the horizon.
    runtime = ShardRuntime(shard_config(num_workers=2, **RESTART), **FAST)
    runtime.run()
    as_of = {e: entry.as_of for e, entry in runtime._edge_states.items()}
    assert as_of == dict.fromkeys(range(runtime.num_edges), 32)


class AnswerLog(ShardRuntime):
    """Records the worker and ``as_of`` of every ``state`` frame that arrives."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.answers: list[tuple[int, int]] = []

    def _dispatch(self, handle, frame: dict) -> None:
        if frame["type"] == "state":
            self.answers.append((handle.index, frame["as_of"]))
        super()._dispatch(handle, frame)


def test_a_boundary_asks_each_worker_once(tmp_path):
    # Every restart boundary is asked for once: 8 by its own request, 16
    # and 32 by the snapshot, 24 by the barrier's drain, whose three new
    # workers answer from 32 on.
    runtime = AnswerLog(
        shard_config(
            num_workers=2, snapshot_every=16,
            snapshot_path=str(tmp_path / "s.pkl"), **RESTART,
        ),
        tracer=Tracer(),
        reconfig=ReconfigPlan((Rebalance(at=24, num_workers=3),)),
        **FAST,
    )
    runtime.run()
    old, new = (0, 1), (0, 1, 2)
    expected = [(w, b) for b in (8, 16, 24) for w in old] + [(w, 32) for w in new]
    assert sorted(runtime.answers) == sorted(expected)
    assert runtime.tracer.metrics_snapshot()["counters"]["serve/snapshots"] == 2
