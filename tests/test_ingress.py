"""Request-level ingress tier: determinism, accounting, and parity gates.

The load-bearing contracts, in the order the module grew them:

* **thinning conservation** — per-edge multinomial thinning partitions
  every slot count exactly, for arbitrary seeds and count shapes;
* **bit parity** — ingress with deferral off and no slot budget is
  invisible: the pinned golden digests do not move, in-process or
  sharded;
* **request accounting** — ``in == served + shed + offline + dropped``
  holds exactly under every admission policy and both router regimes;
* **reproducibility** — equal seeds give byte-identical soak reports on
  the deterministic field subset (wall-clock latencies excluded).
"""

import json

import numpy as np
import pytest

from repro.faults.plan import EdgeOutage, FaultPlan
from repro.ingress import (
    DEFAULT_CLASSES,
    IngressAdapter,
    IngressConfig,
    IngressRouter,
    IngressStats,
    RequestThinner,
    SlaClass,
    SlotRequests,
    clamp_deadline,
    resolve_payload,
)
from repro.obs import InMemorySink, Tracer
from repro.serve import ServeConfig, ShardRuntime, load_snapshot
from repro.serve.adapters import TraceReplayAdapter
from repro.serve.soak import run_soak
from repro.sim.io import result_digest
from repro.utils.rng import spawn_generator, thinning_stream
from tests.test_golden_digests import GOLDEN_DIGESTS, SCENARIO_CONFIGS

TWO_CLASSES = (
    SlaClass(name="fast", share=0.7, deadline_slots=1, priority=1, deferrable=False),
    SlaClass(name="slow", share=0.3, deadline_slots=8, priority=0, deferrable=True),
)


def ingress_serve_config(scenario_name="A", seed=0, ingress=None, **overrides):
    ingress = ingress if ingress is not None else IngressConfig()
    return ServeConfig(
        scenario=SCENARIO_CONFIGS[scenario_name],
        seed=seed,
        label="Ours-Ours",
        ingress=ingress.to_dict(),
        **overrides,
    )


class TestRequestModel:
    def test_clamp_deadline_caps_at_horizon(self):
        assert clamp_deadline(3, 5, horizon=100) == 8
        assert clamp_deadline(3, 500, horizon=10) == 9
        assert clamp_deadline(9, 0, horizon=10) == 9

    def test_sla_class_validation(self):
        with pytest.raises(ValueError):
            SlaClass(name="x", share=0.0, deadline_slots=1, priority=0,
                     deferrable=True)
        with pytest.raises(ValueError):
            SlaClass(name="x", share=1.5, deadline_slots=1, priority=0,
                     deferrable=True)
        with pytest.raises(ValueError):
            SlaClass(name="x", share=0.5, deadline_slots=-1, priority=0,
                     deferrable=True)


class TestIngressConfig:
    def test_default_shares_sum_to_one(self):
        assert abs(sum(c.share for c in DEFAULT_CLASSES) - 1.0) < 1e-12

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            IngressConfig(classes=(
                SlaClass(name="a", share=0.5, deadline_slots=1, priority=0,
                         deferrable=True),
            ))

    def test_duplicate_class_names_rejected(self):
        dup = SlaClass(name="a", share=0.5, deadline_slots=1, priority=0,
                       deferrable=True)
        with pytest.raises(ValueError, match="duplicate"):
            IngressConfig(classes=(dup, dup))

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="admission"):
            IngressConfig(admission="lifo")
        with pytest.raises(ValueError, match="forecaster"):
            IngressConfig(forecaster="oracle")
        with pytest.raises(ValueError, match="lookahead"):
            IngressConfig(lookahead=0)
        with pytest.raises(ValueError, match="defer_margin"):
            IngressConfig(defer_margin=1.0)

    def test_dict_round_trip(self):
        config = IngressConfig(classes=TWO_CLASSES, admission="deadline-shed",
                               queue_capacity=16, slot_capacity=4,
                               forecaster="ar1")
        clone = IngressConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            IngressConfig.from_dict({"burst_factor": 2})

    def test_from_file(self, tmp_path):
        path = tmp_path / "ingress.json"
        config = IngressConfig(slot_capacity=8)
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        assert IngressConfig.from_file(path) == config


class TestThinning:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 99991])
    def test_split_conserves_count_for_arbitrary_shapes(self, seed):
        thinner = RequestThinner(seed, edge=seed % 5, classes=DEFAULT_CLASSES)
        counts = spawn_generator(seed, "test-counts").integers(0, 500, size=64)
        for count in counts:
            split = thinner.split(int(count))
            assert split.sum() == count
            assert (split >= 0).all()

    def test_equal_seeds_give_equal_splits(self):
        a = RequestThinner(5, edge=2, classes=DEFAULT_CLASSES)
        b = RequestThinner(5, edge=2, classes=DEFAULT_CLASSES)
        for count in (0, 1, 10, 100, 3):
            assert (a.split(count) == b.split(count)).all()

    def test_zero_count_slots_stay_deterministic(self):
        # A quiet slot draws (and discards) like any other, so two
        # thinners fed the same count sequence — zeros included — stay
        # bit-identical slot for slot.
        a = RequestThinner(5, edge=0, classes=DEFAULT_CLASSES)
        b = RequestThinner(5, edge=0, classes=DEFAULT_CLASSES)
        for count in (0, 7, 0, 0, 12):
            assert (a.split(count) == b.split(count)).all()
        assert (a.split(50) == b.split(50)).all()

    def test_thinning_stream_is_isolated_from_base_streams(self):
        # The thinner draws from its own named stream, so mounting ingress
        # cannot perturb the arrival/data streams the kernels consume.
        base = spawn_generator(3, "arrivals-0").integers(0, 100, size=8)
        thinner = RequestThinner(3, edge=0, classes=DEFAULT_CLASSES)
        thinner.split(40)
        assert (
            spawn_generator(3, "arrivals-0").integers(0, 100, size=8) == base
        ).all()
        assert (
            thinning_stream(3, 0).bit_generator.state
            != spawn_generator(3, "arrivals-0").bit_generator.state
        )

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_column_splits_as_per_slot_calls(self, seed):
        # One multinomial call over a column, quiet slots included, draws
        # the same values and leaves the stream where per-slot calls do.
        counts = [0, 7, 0, 0, 12, 300, 1, 0]
        column = RequestThinner(seed, edge=2, classes=DEFAULT_CLASSES)
        slots = RequestThinner(seed, edge=2, classes=DEFAULT_CLASSES)
        for count in (5, 0):  # a prefix of per-slot draws on both
            assert (column.split(count) == slots.split(count)).all()
        split = column.split(np.array(counts))
        assert split.shape == (len(counts), len(DEFAULT_CLASSES))
        assert (split == np.stack([slots.split(c) for c in counts])).all()
        assert column.state_dict() == slots.state_dict()

    def test_state_round_trip_resumes_identically(self):
        a = RequestThinner(9, edge=1, classes=TWO_CLASSES)
        for count in (4, 9, 0):
            a.split(count)
        state = a.state_dict()
        b = RequestThinner(9, edge=1, classes=TWO_CLASSES)
        b.load_state(state)
        assert (a.split(33) == b.split(33)).all()


class TestRouter:
    def test_deferral_off_unbounded_releases_in_arrival_slot(self):
        config = IngressConfig(classes=TWO_CLASSES, deferral=False)
        router = IngressRouter(config, horizon=6)
        for t, counts in enumerate([[3, 2], [0, 0], [10, 5]]):
            released, provisional = router.step(t, counts, 1.0)
            assert released == sum(counts)
            assert provisional["deferred"] == 0 and provisional["dropped"] == 0
        assert router.depth[0] == 0

    def test_fifo_slot_capacity_spills_and_final_slot_flushes(self):
        config = IngressConfig(classes=TWO_CLASSES, deferral=False,
                               slot_capacity=4)
        router = IngressRouter(config, horizon=3)
        released, _ = router.step(0, [6, 2], 1.0)
        assert released == 4 and router.depth[0] == 4
        released, _ = router.step(1, [0, 0], 1.0)
        assert released == 4 and router.depth[0] == 0
        released, _ = router.step(2, [9, 0], 1.0)
        assert released == 9  # final-slot flush ignores the budget

    def test_forced_releases_are_capacity_exempt(self):
        tight = SlaClass(name="now", share=1.0, deadline_slots=0, priority=0,
                         deferrable=True)
        config = IngressConfig(classes=(tight,), slot_capacity=1)
        router = IngressRouter(config, horizon=4)
        released, provisional = router.step(0, [5], 1.0)
        assert released == 5  # all deadline-forced despite the budget of 1
        assert provisional["per_class"]["now"] == [5, 5]

    def test_flat_prices_never_defer(self):
        config = IngressConfig(classes=TWO_CLASSES)
        router = IngressRouter(config, horizon=8)
        for t in range(8):
            released, provisional = router.step(t, [2, 2], 1.0)
            assert released == 4 and provisional["deferred"] == 0

    def test_price_spike_defers_deferrable_class_only(self):
        config = IngressConfig(classes=TWO_CLASSES, defer_margin=0.01)
        router = IngressRouter(config, horizon=12)
        for t in range(4):  # establish the EWMA baseline
            router.step(t, [0, 0], 1.0)
        released, provisional = router.step(4, [3, 5], 10.0)
        assert released == 3  # fast is non-deferrable, slow waits
        assert provisional["deferred"] == 5
        # Once the price returns to baseline the parked work drains.
        released, _ = router.step(5, [0, 0], 1.0)
        assert released == 5 and router.depth[0] == 0

    @pytest.mark.parametrize("admission", ["drop-oldest", "deadline-shed"])
    def test_queue_capacity_drops_and_accounting_closes(self, admission):
        config = IngressConfig(classes=TWO_CLASSES, admission=admission,
                               queue_capacity=3, slot_capacity=2,
                               defer_margin=0.01)
        horizon = 10
        router = IngressRouter(config, horizon)
        total_in = released = dropped = 0
        for t in range(horizon):
            counts = [4, 4] if t < 5 else [0, 0]
            n, provisional = router.step(t, counts, 1.0)
            total_in += provisional["in"]
            released += n
            dropped += provisional["dropped"]
        assert dropped > 0
        assert router.depth[0] == 0  # final slot drained everything
        assert total_in == released + dropped

    def test_deadline_shed_evicts_the_slackest(self):
        config = IngressConfig(classes=TWO_CLASSES, admission="deadline-shed",
                               queue_capacity=2, slot_capacity=1,
                               defer_margin=0.01)
        router = IngressRouter(config, horizon=20)
        for t in range(4):
            router.step(t, [0, 0], 1.0)
        # Price spike parks slow work; overflow must shed the latest
        # (slackest) arrivals, keeping the earliest deadlines queued.
        _, p0 = router.step(4, [0, 6], 10.0)
        assert p0["dropped"] == 4  # capacity 2
        assert p0["deferred"] == router.depth[0] == 2
        # Later arrivals have more slack than the parked pair: all shed.
        _, p1 = router.step(5, [0, 3], 10.0)
        assert p1["dropped"] == 3 and p1["deferred"] == 0 and router.depth[0] == 2
        # Once the price falls, the slot-4 pair releases one per slot
        # (slot capacity 1), each inside its slot-12 deadline.
        for t, wait in ((6, 2), (7, 3)):
            released, provisional = router.step(t, [0, 0], 1.0)
            assert released == 1 and provisional["waits"] == {wait: 1}
            assert provisional["per_class"]["slow"] == [1, 1]
        assert router.depth[0] == 0

    def test_state_round_trip_resumes_identically(self):
        config = IngressConfig(classes=TWO_CLASSES, slot_capacity=3,
                               defer_margin=0.01)
        a = IngressRouter(config, horizon=16)
        for t in range(6):
            a.step(t, [2, 3], 1.0 + (t == 5) * 9.0)
        b = IngressRouter(config, horizon=16)
        b.load_state(a.state_dict())
        for t in range(6, 16):
            ra = a.step(t, [1, 1], 1.0)
            rb = b.step(t, [1, 1], 1.0)
            assert ra == rb


class TestStatsLifecycle:
    def provisional(self):
        # One edge: 10 in, 1 dropped, 6 released (fast 4 on time, slow 2
        # with 1 on time), 3 deferred and queued; 2 waited 1 slot, 1 waited 3.
        return SlotRequests(
            totals=np.array([[10, 1, 6, 3, 3]]),
            per_class=np.array([[[4, 2], [4, 1]]]),
            waits=np.array([[0, 2, 0, 1]]),
        )

    @staticmethod
    def flags(shed=False, offline=False):
        return {"shed": np.array([shed]), "offline": np.array([offline])}

    def summed(self, stats):
        payload = resolve_payload(stats, **self.flags())
        return tuple(part.sum(axis=0) for part in payload)

    def test_served_slot_keeps_hits(self):
        totals, per_class, _ = resolve_payload(self.provisional(), **self.flags())
        assert totals[0].tolist() == [10, 1, 6, 3, 5, 1]  # 5 hits, 1 miss
        assert per_class[0][:, 0].tolist() == [4, 4]  # fast: released, hits

    @pytest.mark.parametrize("kwargs", [{"shed": True}, {"offline": True}])
    def test_shed_or_offline_slot_zeroes_hits(self, kwargs):
        flags = self.flags(**kwargs)
        totals, per_class, _ = resolve_payload(self.provisional(), **flags)
        assert totals[0].tolist() == [10, 1, 6, 3, 0, 6]
        assert per_class[0][:, 0].tolist() == [4, 0]

    @pytest.mark.parametrize(
        "shed, offline, hit", [(False, False, True), (True, False, False),
                               (False, True, False)],
        ids=["served", "shed", "offline"],
    )
    def test_adapter_resolves_shed_and_offline_rows_as_misses(self, shed, offline, hit):
        # Park slot 0 through the adapter, then resolve it with the row's
        # flags as a shard worker does from its span record.
        adapter = IngressAdapter(
            {0: TraceReplayAdapter(0, np.array([9, 9]))},
            config=IngressConfig(classes=TWO_CLASSES),
            seed=0,
            horizon=2,
            prices=np.ones(2),
        )
        assert adapter.draw(0, 1).tolist() == [[9]]
        totals, per_class, _ = adapter.resolve_slot(
            0, shed=np.array([shed]), offline=np.array([offline])
        )
        in_, _, released, _, hits, misses = totals.tolist()
        assert in_ == released == per_class[0].sum() == 9
        assert (hits, misses) == ((9, 0) if hit else (0, 9))
        assert per_class[1].tolist() == (per_class[0] * hit).tolist()

    def test_absorb_and_accounting(self):
        stats = IngressStats(["fast", "slow"])
        stats.absorb(self.summed(self.provisional()))
        # A final slot that drains the 3 queued requests plus 2 new ones;
        # the conservation identity only closes once the queues are empty.
        drain = SlotRequests(
            totals=np.array([[2, 0, 5, 0, 0]]),
            per_class=np.array([[[2, 3], [2, 3]]]),
            waits=np.array([[0, 0, 3]]),
        )
        stats.absorb(self.summed(drain))
        assert stats.requests_in == 12 and stats.requests_dropped == 1
        assert stats.requests_released == 11
        # served + shed + offline must cover every non-dropped request.
        assert stats.accounting_ok(11, 0, 0)
        assert not stats.accounting_ok(10, 0, 0)
        summary = stats.summary()
        assert summary["per_class"]["fast"]["hit_rate"] == 1.0
        assert summary["wait_histogram"] == {"1": 2, "2": 3, "3": 1}


def run_books(runtime: ShardRuntime) -> tuple[dict, dict]:
    """A finished run's request summary and its request and event counters."""
    counters = runtime.tracer.metrics_snapshot()["counters"]
    return runtime.ingress.summary(), {
        name: value
        for name, value in counters.items()
        if name.startswith(("ingress/", "serve/events_"))
    }


class TestGoldenParity:
    """Deferral-off ingress must be invisible to the pinned digests."""

    def test_in_process_digest_unmoved(self):
        config = ingress_serve_config(
            "A", 0, ingress=IngressConfig(deferral=False)
        )
        result = ShardRuntime(config, tracer=Tracer()).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    def test_sharded_digest_unmoved(self):
        config = ingress_serve_config(
            "A", 0, ingress=IngressConfig(deferral=False), num_workers=2
        )
        runtime = ShardRuntime(config, tracer=Tracer())
        assert result_digest(runtime.run()) == GOLDEN_DIGESTS[("A", 0)]

    def test_deferral_moves_the_digest(self):
        # Sanity check on the parity gate itself: with deferral on and a
        # slot budget the kernels see different counts, so the digest must
        # move — if it does not, the gate above is vacuous.
        config = ingress_serve_config(
            "A", 0, ingress=IngressConfig(slot_capacity=3, defer_margin=0.0)
        )
        result = ShardRuntime(config, tracer=Tracer()).run()
        assert result_digest(result) != GOLDEN_DIGESTS[("A", 0)]


class TestServeIntegration:
    @pytest.mark.parametrize("admission", ["admit", "drop-oldest",
                                           "deadline-shed"])
    def test_accounting_exact_per_policy(self, admission):
        ingress = IngressConfig(
            classes=TWO_CLASSES, admission=admission, queue_capacity=8,
            slot_capacity=12, defer_margin=0.01,
        )
        config = ingress_serve_config("A", 0, ingress=ingress)
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer)
        runtime.run()
        counters = tracer.metrics_snapshot()["counters"]
        stats = runtime.ingress
        assert stats.accounting_ok(
            int(counters["serve/events_served"]),
            int(counters["serve/events_shed"]),
            int(counters["serve/events_dropped_offline"]),
        )
        assert int(counters["ingress/requests_in"]) == stats.requests_in

    def test_config_rejects_dataset_adapter_and_bad_ingress(self):
        with pytest.raises(ValueError, match="dataset"):
            ingress_serve_config("A", 0, adapter="dataset")
        with pytest.raises(ValueError, match="unknown IngressConfig"):
            ServeConfig(ingress={"bogus": 1})
        with pytest.raises(ValueError, match="IngressConfig dict"):
            ServeConfig(ingress="default")

    def test_snapshot_resume_preserves_digest(self, tmp_path):
        path = tmp_path / "state.pkl"
        config = ingress_serve_config(
            "A", 0, ingress=IngressConfig(deferral=False),
            snapshot_every=8, snapshot_path=str(path),
        )
        runtime = ShardRuntime(config, tracer=Tracer())
        runtime.run(max_slots=8)
        resumed = ShardRuntime.from_snapshot(path, tracer=Tracer())
        assert result_digest(resumed.run()) == GOLDEN_DIGESTS[("A", 0)]

    def test_deferral_resume_with_parked_cohorts_preserves_digest(self, tmp_path):
        # Requests parked in the routers at the snapshot go on from there,
        # and the resumed run's books cover the whole run, in-process and
        # at 2 workers alike.
        ingress = IngressConfig(slot_capacity=4)
        for workers in (0, 2):
            whole = ShardRuntime(
                ingress_serve_config("A", 0, ingress=ingress, num_workers=workers),
                tracer=Tracer(),
            )
            uninterrupted = whole.run()
            path = tmp_path / f"state{workers}.pkl"
            config = ingress_serve_config(
                "A", 0, ingress=ingress, num_workers=workers,
                snapshot_every=8, snapshot_path=str(path),
            )
            ShardRuntime(config, tracer=Tracer()).run(max_slots=8)
            state = load_snapshot(path)
            resumed = ShardRuntime.from_state(state, tracer=Tracer())
            assert result_digest(resumed.run()) == result_digest(uninterrupted)
            counters = run_books(resumed)[1]
            resolved = sum(
                counters[f"serve/events_{kind}"]
                for kind in ("served", "shed", "dropped_offline")
            )
            assert (counters["ingress/requests_in"], resolved) == (4867, 4867)
            assert counters["serve/events_in"] == 4867
            assert run_books(resumed) == run_books(whole)
            parked = 0
            for entry in state.edges.values():
                router = IngressRouter(ingress, SCENARIO_CONFIGS["A"].horizon)
                router.load_state(entry.adapter["router"])
                parked += router.depth[0]
            assert parked > 0


#: Scenario A, seed 0: each config's digest, deferred and dropped requests.
PINNED_INGRESS_RUNS = {
    "slot-capacity-4": (
        IngressConfig(slot_capacity=4),
        "764a67d3676c2d2d955efbfd01bfba6b08da2eb6f3be834fd2e0974723d6a410",
        4760,
        0,
    ),
    "deadline-shed": (
        IngressConfig(admission="deadline-shed", queue_capacity=4, slot_capacity=4),
        "f53879448a038c01bfd3c796ce86e9bf44bb2c0cf11fa66afcaf1f45c740b132",
        165,
        4360,
    ),
    "fifo-drop-oldest": (
        IngressConfig(
            deferral=False, slot_capacity=3, admission="drop-oldest",
            queue_capacity=5,
        ),
        "e9210f161c48f5545b2a6993d198493105a21f3a9f6b28ca52b6f92df72137b4",
        584,
        4414,
    ),
}


class TestPartitionAndPipelining:
    """Request results depend on neither the worker partition nor pipelining."""

    @pytest.mark.parametrize("name", list(PINNED_INGRESS_RUNS))
    def test_books_and_digest_match_across_runs(self, name):
        ingress, digest, deferred, dropped = PINNED_INGRESS_RUNS[name]
        settings = [{"num_workers": w} for w in (0, 2)]
        if name == "slot-capacity-4":
            # Multi-slot spans and held bursts under the wall clock.
            settings += [
                {
                    "num_workers": w, "virtual_clock": False, "slot_duration": 0.0,
                    "pipeline_depth": 8, "backpressure": "block",
                }
                for w in (0, 2)
            ]
        books = []
        for overrides in settings:
            config = ingress_serve_config("A", 0, ingress=ingress, **overrides)
            runtime = ShardRuntime(config, tracer=Tracer())
            assert result_digest(runtime.run()) == digest, overrides
            books.append(run_books(runtime))
        summary = books[0][0]
        assert summary["requests_deferred"] == deferred
        assert summary["requests_dropped"] == dropped
        assert all(book == books[0] for book in books[1:])


#: The sampled request-level obs events.
REQUEST_EVENTS = ("request_admit", "request_defer", "request_drop", "deadline_miss")


class TestSampledRequestEvents:
    """The sampled request events add up to the run's request books."""

    @staticmethod
    def traced(ingress, faults=None):
        sink = InMemorySink()
        config = ingress_serve_config("A", 0, ingress=ingress)
        runtime = ShardRuntime(config, tracer=Tracer([sink]), faults=faults)
        runtime.run()
        totals = {
            kind: sum(event.count for event in sink.of_type(kind))
            for kind in REQUEST_EVENTS
        }
        return runtime.ingress, totals, sink

    @pytest.mark.parametrize("case", ["outage", "deadline-shed"])
    def test_event_counts_equal_the_books(self, case):
        if case == "outage":
            ingress = IngressConfig(slot_capacity=4)
            faults = FaultPlan((EdgeOutage(edge=1, start=10, end=20),))
        else:
            ingress, faults = PINNED_INGRESS_RUNS["deadline-shed"][0], None
        stats, totals, _ = self.traced(ingress, faults)
        assert totals == {
            "request_admit": stats.requests_in - stats.requests_dropped,
            "request_defer": stats.requests_deferred,
            "request_drop": stats.requests_dropped,
            "deadline_miss": stats.deadline_misses,
        }
        if case == "outage":
            assert stats.deadline_misses == 674
        else:
            assert stats.requests_dropped == 4360

    def test_events_are_sampled_by_slot(self):
        ingress = IngressConfig(slot_capacity=4, sample_every=4)
        _, totals, sink = self.traced(ingress)
        events = [event for event in sink.events if event.type in REQUEST_EVENTS]
        assert events and all(event.t % 4 == 0 for event in events)
        assert totals["request_admit"] > 0


class TestSoakDeterminism:
    #: SoakReport fields that are pure functions of the config (wall-clock
    #: latency stages and throughput are not).
    DETERMINISTIC_FIELDS = (
        "shape", "num_edges", "num_workers", "horizon", "events_in",
        "events_served", "events_shed", "events_dropped_offline",
        "accounting_ok", "ingress",
    )

    def soak(self, **kwargs):
        return run_soak(
            "spike", num_edges=4, num_workers=2, horizon=24,
            total_events=1500, seed=11,
            ingress=IngressConfig(slot_capacity=16, defer_margin=0.01),
            **kwargs,
        )

    def test_equal_seeds_give_byte_identical_reports(self):
        first, second = self.soak().to_dict(), self.soak().to_dict()
        for name in self.DETERMINISTIC_FIELDS:
            assert json.dumps(first[name], sort_keys=True) == json.dumps(
                second[name], sort_keys=True
            ), name
        # The deferral stage is exact from slot-valued waits, so it is
        # reproducible too.
        assert first["stages"]["deferral"] == second["stages"]["deferral"]

    def test_request_accounting_and_report_shape(self):
        report = self.soak()
        assert report.accounting_ok
        ingress = report.ingress
        assert ingress["requests_in"] == 1500
        assert ingress["requests_in"] == (
            report.events_served + report.events_shed
            + report.events_dropped_offline + ingress["requests_dropped"]
        )
        assert set(ingress["per_class"]) == {c.name for c in DEFAULT_CLASSES}
        assert report.stages["deferral"]["count"] > 0

    def test_deferral_stage_is_exact_from_the_wait_histogram(self):
        report = self.soak()
        # ``wait_histogram`` is IngressStats.waits: requests per slot waited.
        waits = {int(w): c for w, c in report.ingress["wait_histogram"].items()}
        sample = np.repeat(list(waits), list(waits.values()))
        deferral = report.stages["deferral"]
        assert deferral["count"] == sample.size > 0
        assert deferral["mean_s"] == sample.sum() / sample.size
        assert deferral["max_s"] == sample.max()
        for q in (0.5, 0.95, 0.99):
            exact = np.quantile(sample, q, method="inverted_cdf")
            assert deferral[f"p{round(q * 100)}_s"] == exact, q
