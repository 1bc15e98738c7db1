"""Tests for repro.obs: events, sinks, tracer, metrics, and instrumentation.

The contract under test: every event round-trips through JSONL bit-exactly,
the no-op tracer is inert (and rejects sinks), and the instrumented
simulator's event stream agrees with the aggregates the simulation itself
reports — e.g. the number of ``model_switch`` events equals the switch
tally in the :class:`SimulationResult`.
"""

import io
import json

import pytest

from repro.obs import (
    EVENT_TYPES,
    NULL_TRACER,
    BlockBoundaryEvent,
    ArrivalEvent,
    Counter,
    DualUpdateEvent,
    EdgeFilterSink,
    EmissionEvent,
    FaultInjectedEvent,
    FeedbackLostEvent,
    InMemorySink,
    JsonlSink,
    ModelSwitchEvent,
    NullTracer,
    QueueShedEvent,
    ReconfigAppliedEvent,
    RetryEvent,
    SlotStartEvent,
    SnapshotEvent,
    Timer,
    TradeEvent,
    TradeRejectedEvent,
    Tracer,
    WorkerDeathEvent,
    WorkerRestartEvent,
    WorkerSpawnEvent,
    event_from_dict,
    read_events,
)
from repro.sim import ScenarioConfig, Simulator, build_scenario
from repro.spec import RunSpec

ALL_EVENTS = [
    SlotStartEvent(t=0, horizon=160),
    ModelSwitchEvent(t=3, edge=1, previous_model=-1, model=4, switch_cost=2.5),
    BlockBoundaryEvent(t=8, edge=0, block=2, length=4, eta=0.5, model=1),
    TradeEvent(t=5, buy=1.25, sell=0.0, buy_price=80.0, sell_price=72.0, cost=100.0),
    DualUpdateEvent(t=5, dual=0.125, constraint=-3.0),
    EmissionEvent(t=5, emissions_kg=4.0, cumulative_kg=20.0, holdings_kg=18.0, violation_kg=2.0),
    FaultInjectedEvent(t=6, kind="edge_outage", edge=2),
    FeedbackLostEvent(t=7, edge=1, model=3),
    TradeRejectedEvent(t=9, buy=1.5, sell=0.0, pending_buy=1.5, pending_sell=0.0),
    RetryEvent(t=11, edge=0, hosted_model=2, target_model=4, attempt=2, backoff_slots=4),
    ArrivalEvent(t=2, edge=1, count=64),
    QueueShedEvent(t=4, edge=0, count=57),
    SnapshotEvent(t=15, path="snap.pkl"),
    WorkerSpawnEvent(t=0, worker=1, num_edges=3, generation=0),
    WorkerDeathEvent(t=12, worker=1, policy="restart", message="boom"),
    WorkerRestartEvent(t=13, worker=1, replay_from=12, attempt=1, backoff_s=0.05),
    ReconfigAppliedEvent(t=24, op="remove_edge", edge=2, active_edges=3, num_workers=2),
]


class TestEvents:
    def test_registry_covers_all_types(self):
        assert set(EVENT_TYPES) == {
            "slot_start",
            "model_switch",
            "block_boundary",
            "trade",
            "dual_update",
            "emission",
            "fault_injected",
            "feedback_lost",
            "trade_rejected",
            "retry",
            "arrival",
            "queue_shed",
            "snapshot",
            "worker_spawn",
            "worker_death",
            "worker_restart",
            "reconfig_applied",
            "request_admit",
            "request_defer",
            "request_drop",
            "deadline_miss",
        }

    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: e.type)
    def test_dict_round_trip(self, event):
        payload = event.as_dict()
        assert payload["type"] == event.type
        assert event_from_dict(json.loads(json.dumps(payload))) == event

    def test_unknown_type_lists_known_tags(self):
        with pytest.raises(ValueError, match="slot_start"):
            event_from_dict({"type": "warp_drive", "t": 0})


class TestSinks:
    def test_jsonl_round_trip_via_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for event in ALL_EVENTS:
            sink.write(event)
        sink.close()
        assert sink.events_written == len(ALL_EVENTS)
        assert read_events(path) == ALL_EVENTS

    def test_jsonl_stream_stays_open(self):
        stream = io.StringIO()
        sink = JsonlSink(stream)
        sink.write(ALL_EVENTS[0])
        sink.close()
        assert not stream.closed  # caller owns the stream
        assert json.loads(stream.getvalue())["type"] == "slot_start"

    def test_in_memory_sink_counts(self):
        sink = InMemorySink()
        for event in ALL_EVENTS:
            sink.write(event)
        assert len(sink) == len(ALL_EVENTS)
        assert sink.counts_by_type()["trade"] == 1
        assert sink.of_type("emission") == [ALL_EVENTS[5]]

    def test_edge_filter_forwards_only_matching_edge(self):
        inner = InMemorySink()
        sink = EdgeFilterSink(inner, edge=1)
        for event in ALL_EVENTS:
            sink.write(event)
        # The edge-1 model switch, feedback loss, and stream arrival.
        assert inner.events == [ALL_EVENTS[1], ALL_EVENTS[7], ALL_EVENTS[10]]
        assert sink.events_seen == len(ALL_EVENTS)
        assert sink.events_forwarded == 3
        assert sink.forwarded_counts == {
            "model_switch": 1, "feedback_lost": 1, "arrival": 1,
        }

    def test_edge_filter_drops_edgeless_events(self):
        # slot_start/trade/dual_update/emission carry no edge: never forwarded.
        inner = InMemorySink()
        sink = EdgeFilterSink(inner, edge=0)
        for event in ALL_EVENTS:
            sink.write(event)
        # The edge-0 block boundary, download retry, and queue shed.
        assert inner.events == [ALL_EVENTS[2], ALL_EVENTS[9], ALL_EVENTS[11]]
        assert all(hasattr(event, "edge") for event in inner.events)

    def test_edge_filter_closes_inner_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        inner = JsonlSink(path)
        sink = EdgeFilterSink(inner, edge=1)
        sink.write(ALL_EVENTS[1])
        sink.close()
        assert read_events(path) == [ALL_EVENTS[1]]


class TestTracer:
    def test_fan_out_and_counts(self):
        first, second = InMemorySink(), InMemorySink()
        tracer = Tracer([first, second])
        tracer.emit(ALL_EVENTS[0])
        tracer.emit(ALL_EVENTS[1])
        assert len(first) == len(second) == 2
        assert tracer.event_counts() == {"slot_start": 1, "model_switch": 1}

    def test_counters_and_timers_snapshot(self):
        tracer = Tracer()
        tracer.counter("slots").increment(3)
        with tracer.timer("run"):
            pass
        snapshot = tracer.metrics_snapshot()
        assert snapshot["counters"]["slots"] == 3
        assert snapshot["timers"]["run"] == tracer.timer("run").summary()
        assert snapshot["timers"]["run"]["count"] == 1
        assert snapshot["timers"]["run"]["mean_s"] >= 0.0
        json.dumps(snapshot, allow_nan=False)  # what /metrics serves

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(ALL_EVENTS[0])  # silently dropped
        assert NULL_TRACER.event_counts() == {}
        with pytest.raises(TypeError):
            NullTracer().add_sink(InMemorySink())


class TestMetrics:
    def test_counter(self):
        counter = Counter("n")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_timer(self):
        timer = Timer("t")
        with timer:
            pass
        assert timer.count == 1
        assert timer.total_seconds >= 0.0
        assert timer.mean_seconds == timer.total_seconds


class TestInstrumentedSimulation:
    @pytest.fixture(scope="class")
    def traced_run(self):
        scenario = build_scenario(
            ScenarioConfig(dataset="synthetic", num_edges=4, horizon=48)
        )
        sink = InMemorySink()
        simulator = Simulator.from_spec(
            scenario, RunSpec(seed=11), tracer=Tracer([sink])
        )
        return simulator.run(), sink, scenario

    def test_every_clean_event_type_emitted(self, traced_run):
        # A clean (fault-free) run emits every event type except the four
        # fault events, which only fire under a non-empty FaultPlan.
        _, sink, _ = traced_run
        fault_types = {"fault_injected", "feedback_lost", "trade_rejected", "retry"}
        serve_types = {
            "arrival",
            "queue_shed",
            "snapshot",
            "worker_spawn",
            "worker_death",
            "worker_restart",
            "reconfig_applied",
            "request_admit",
            "request_defer",
            "request_drop",
            "deadline_miss",
        }
        assert set(sink.counts_by_type()) == set(EVENT_TYPES) - fault_types - serve_types

    def test_slot_start_per_slot(self, traced_run):
        _, sink, scenario = traced_run
        assert sink.counts_by_type()["slot_start"] == scenario.horizon

    def test_model_switch_events_match_switch_tally(self, traced_run):
        result, sink, _ = traced_run
        assert sink.counts_by_type()["model_switch"] == result.total_switches()

    def test_emission_events_match_recorded_emissions(self, traced_run):
        result, sink, scenario = traced_run
        emissions = sink.of_type("emission")
        assert len(emissions) == scenario.horizon
        assert emissions[-1].cumulative_kg == pytest.approx(
            float(result.emissions.sum())
        )

    def test_tracing_does_not_change_results(self):
        scenario = build_scenario(
            ScenarioConfig(dataset="synthetic", num_edges=4, horizon=48)
        )
        plain = Simulator.from_spec(scenario, RunSpec(seed=11)).run()
        traced = Simulator.from_spec(
            scenario, RunSpec(seed=11), tracer=Tracer([InMemorySink()])
        ).run()
        assert (plain.selections == traced.selections).all()
        assert (plain.trading_cost == traced.trading_cost).all()
        assert float(plain.emissions.sum()) == float(traced.emissions.sum())


class TestAsyncQueueSink:
    def test_byte_identical_to_jsonl_sink_under_full_drain(self, tmp_path):
        from repro.obs import AsyncQueueSink

        direct = tmp_path / "direct.jsonl"
        threaded = tmp_path / "threaded.jsonl"
        plain = JsonlSink(direct)
        for event in ALL_EVENTS:
            plain.write(event)
        plain.close()
        sink = AsyncQueueSink(JsonlSink(threaded))
        for event in ALL_EVENTS:
            sink.write(event)
        sink.close()
        assert sink.dropped == 0
        assert sink.events_written == len(ALL_EVENTS)
        assert threaded.read_bytes() == direct.read_bytes()

    def test_drops_are_counted_when_queue_overflows(self, tmp_path):
        import threading

        from repro.obs import AsyncQueueSink

        release = threading.Event()
        entered = threading.Event()

        class SlowSink:
            def __init__(self):
                self.seen = 0

            def write(self, event):
                entered.set()
                release.wait(timeout=5)
                self.seen += 1

            def close(self):
                pass

        inner = SlowSink()
        sink = AsyncQueueSink(inner, capacity=4)
        # the first event occupies the worker (wait until it is inside the
        # inner write), then four more fill the queue to capacity.
        sink.write(ALL_EVENTS[0])
        assert entered.wait(timeout=5)
        for _ in range(4):
            sink.write(ALL_EVENTS[0])
        overflowed = 3
        for _ in range(overflowed):
            sink.write(ALL_EVENTS[0])
        assert sink.dropped == overflowed
        release.set()
        sink.close()
        assert inner.seen == 5
        assert sink.events_written == 5

    def test_write_after_close_raises(self):
        from repro.obs import AsyncQueueSink

        sink = AsyncQueueSink(InMemorySink())
        sink.close()
        with pytest.raises(ValueError):
            sink.write(ALL_EVENTS[0])

    def test_capacity_validated(self):
        from repro.obs import AsyncQueueSink

        with pytest.raises(ValueError):
            AsyncQueueSink(InMemorySink(), capacity=0)

    def test_used_as_tracer_sink_on_a_real_run(self, tmp_path):
        from repro.obs import AsyncQueueSink

        path = tmp_path / "run.jsonl"
        sink = AsyncQueueSink(JsonlSink(path))
        tracer = Tracer([sink])
        scenario = build_scenario(
            ScenarioConfig(dataset="synthetic", num_edges=2, horizon=16)
        )
        Simulator.from_spec(scenario, RunSpec(seed=5), tracer=tracer).run()
        tracer.close()
        assert sink.dropped == 0
        replayed = list(read_events(path))
        assert len(replayed) == sink.events_written > 0


class TestTraceSummaries:
    def _trace(self, tmp_path, horizon=20, num_edges=2):
        from repro.obs import summarize_trace

        path = tmp_path / "run.jsonl"
        sink = JsonlSink(path)
        tracer = Tracer([sink])
        scenario = build_scenario(
            ScenarioConfig(
                dataset="synthetic", num_edges=num_edges, horizon=horizon
            )
        )
        result = Simulator.from_spec(scenario, RunSpec(seed=9), tracer=tracer).run()
        tracer.close()
        return result, summarize_trace(path), tracer.event_counts()

    def test_summary_counts_match_tracer(self, tmp_path):
        result, summary, counts = self._trace(tmp_path)
        assert summary.event_counts == counts
        assert summary.events_total == sum(counts.values())
        assert summary.slots_seen == summary.horizon == result.horizon

    def test_summary_aggregates_match_result(self, tmp_path):
        result, summary, _ = self._trace(tmp_path)
        assert sum(s.switches for s in summary.edges.values()) == (
            result.total_switches()
        )
        assert summary.total_bought == pytest.approx(float(result.bought.sum()))
        assert summary.total_sold == pytest.approx(float(result.sold.sum()))
        assert summary.trading_cost == pytest.approx(
            float(result.trading_cost.sum())
        )
        assert summary.final_cumulative_kg == pytest.approx(
            float(result.emissions.sum())
        )

    def test_summarize_events_on_empty_iterable(self):
        from repro.obs import summarize_events

        summary = summarize_events([])
        assert summary.events_total == 0
        assert summary.slots_seen == 0
        assert summary.edges == {}
        assert summary.final_dual is None

    def test_edge_rows_sorted_by_edge(self, tmp_path):
        _, summary, _ = self._trace(tmp_path, num_edges=3)
        rows = summary.edge_rows()
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)


class TestStreamingIterEvents:
    """iter_events: lazy decode, truncation tolerance, corruption surfacing."""

    def _write_trace(self, path):
        sink = JsonlSink(path)
        for event in ALL_EVENTS:
            sink.write(event)
        sink.close()

    def test_matches_read_events(self, tmp_path):
        from repro.obs import iter_events

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        assert list(iter_events(path)) == read_events(path)

    def test_is_lazy(self, tmp_path):
        from repro.obs import iter_events

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        stream = iter_events(path)
        assert next(stream) == ALL_EVENTS[0]  # nothing else decoded yet
        stream.close()

    def test_truncated_tail_is_forgiven(self, tmp_path):
        # A crashed writer leaves a torn final line with no newline; the
        # stream must end cleanly with every complete event intact.
        from repro.obs import iter_events

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        full = path.read_text(encoding="utf-8")
        torn = full.rstrip("\n")[: len(full) - 20]
        path.write_text(torn, encoding="utf-8")
        events = list(iter_events(path))
        assert events == ALL_EVENTS[:-1]

    def test_complete_malformed_line_raises(self, tmp_path):
        # Corruption in the middle of a log (newline-terminated garbage)
        # must surface, not be skipped as if it were a truncation.
        from repro.obs import iter_events

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[4] = lines[4][:-15] + "<GARBAGE>"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed JSONL event"):
            list(iter_events(path))

    def test_blank_lines_skipped(self, tmp_path):
        from repro.obs import iter_events

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        body = path.read_text(encoding="utf-8").replace("\n", "\n\n")
        path.write_text(body, encoding="utf-8")
        assert list(iter_events(path)) == ALL_EVENTS

    def test_summarize_trace_streams_torn_log(self, tmp_path):
        from repro.obs import summarize_trace

        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        full = path.read_text(encoding="utf-8")
        path.write_text(full.rstrip("\n")[: len(full) - 20], encoding="utf-8")
        summary = summarize_trace(path)
        assert summary.events_total == len(ALL_EVENTS) - 1
        assert "reconfig_applied" not in summary.event_counts


class TestMergeEvents:
    """Deterministic multi-log merge (the sharded-trace replay path)."""

    @staticmethod
    def _write(path, events):
        sink = JsonlSink(path)
        for event in events:
            sink.write(event)
        sink.close()

    def test_merges_by_slot_across_files(self, tmp_path):
        from repro.obs import merge_events

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write(a, [ArrivalEvent(t=0, edge=0, count=1),
                        ArrivalEvent(t=2, edge=0, count=1)])
        self._write(b, [ArrivalEvent(t=1, edge=1, count=1),
                        ArrivalEvent(t=3, edge=1, count=1)])
        merged = list(merge_events([a, b]))
        assert [e.t for e in merged] == [0, 1, 2, 3]
        assert [e.edge for e in merged] == [0, 1, 0, 1]

    def test_equal_slots_tie_break_by_path_order_then_file_order(self, tmp_path):
        from repro.obs import merge_events

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write(a, [ArrivalEvent(t=5, edge=0, count=10),
                        QueueShedEvent(t=5, edge=0, count=3)])
        self._write(b, [ArrivalEvent(t=5, edge=1, count=20)])
        first = list(merge_events([a, b]))
        # Within a slot: everything from the first path (in file order),
        # then the second — a pure function of the path list.
        assert [type(e).__name__ for e in first] == [
            "ArrivalEvent", "QueueShedEvent", "ArrivalEvent",
        ]
        assert [getattr(e, "edge", None) for e in first] == [0, 0, 1]
        swapped = list(merge_events([b, a]))
        assert [getattr(e, "edge", None) for e in swapped] == [1, 0, 0]

    def test_interleaving_is_independent_of_file_sizes(self, tmp_path):
        from repro.obs import merge_events

        # The same events split unevenly across logs merge identically:
        # the key is (slot, path index, in-file order), never file length.
        short = tmp_path / "short.jsonl"
        long = tmp_path / "long.jsonl"
        self._write(short, [ArrivalEvent(t=4, edge=0, count=1)])
        self._write(
            long,
            [ArrivalEvent(t=t, edge=1, count=1) for t in range(8)],
        )
        merged = [(e.t, e.edge) for e in merge_events([short, long])]
        # Slots ascend, and within slot 4 the short file (path index 0)
        # comes first even though the other log is eight times longer.
        assert [t for t, _ in merged] == sorted(t for t, _ in merged)
        slot4 = [edge for t, edge in merged if t == 4]
        assert slot4 == [0, 1]

    def test_slotless_events_sort_as_slot_zero(self, tmp_path):
        from repro.obs import merge_events

        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        self._write(a, [ArrivalEvent(t=1, edge=0, count=1)])
        self._write(b, [SlotStartEvent(t=0, horizon=8)])
        merged = list(merge_events([a, b]))
        assert type(merged[0]).__name__ == "SlotStartEvent"

    def test_summarize_traces_single_path_matches_summarize_trace(
        self, tmp_path
    ):
        from repro.obs import summarize_trace, summarize_traces

        path = tmp_path / "run.jsonl"
        self._write(path, ALL_EVENTS)
        assert summarize_traces([path]) == summarize_trace(path)

    def test_split_trace_summarizes_like_the_whole(self, tmp_path):
        from repro.obs import summarize_trace, summarize_traces

        whole = tmp_path / "whole.jsonl"
        self._write(whole, sorted(ALL_EVENTS, key=lambda e: e.t))
        parts = [tmp_path / "p0.jsonl", tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"]
        ordered = sorted(ALL_EVENTS, key=lambda e: e.t)
        for i, part in enumerate(parts):
            self._write(part, ordered[i::3])
        assert summarize_traces(parts) == summarize_trace(whole)
