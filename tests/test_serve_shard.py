"""Tests for repro.serve.shard: the multi-process sharded edge tier.

Parity across worker counts lives in ``tests/test_serve.py`` next to the
other golden-digest locks (``TestShardedParity``); this file covers the
shard machinery itself:

* the edge partition and the wire protocol;
* resilience — a worker killed mid-horizon under both death policies,
  with the survivors' trajectories bit-identical and the accounting
  equation intact;
* sharded snapshot/resume (and cross-resume against the in-process
  runtime — snapshots are runtime-agnostic);
* the deterministic per-shard trace merge;
* a 64-edge x 4-worker fleet smoke and the ``repro soak`` CLI.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.ingress import IngressConfig
from repro.obs import JsonlSink, Tracer, summarize_trace, summarize_traces
from repro.serve import (
    AddEdge,
    ChaosPlan,
    RandomKills,
    Rebalance,
    ReconfigPlan,
    RemoveEdge,
    ServeConfig,
    ShardRuntime,
    TransportDrop,
    WorkerKill,
    WorkerStall,
    load_snapshot,
    realize_chaos,
    release_target,
    save_snapshot,
    shard_edges,
)
from repro.serve.frames import (
    FRAME_TYPES,
    drain_frames,
    recv_frame,
    send_frame,
)
from repro.serve.soak import SOAK_FORMAT_VERSION
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from tests.test_golden_digests import GOLDEN_DIGESTS, SCENARIO_CONFIGS

#: Fast heartbeat so liveness machinery is exercised within test runtimes.
FAST = dict(heartbeat_interval=0.05)


def shard_config(scenario_name="A", seed=0, **overrides):
    return ServeConfig(
        scenario=SCENARIO_CONFIGS[scenario_name],
        seed=seed,
        label="Ours-Ours",
        **overrides,
    )


def kill_plan(worker: int, at: int) -> ChaosPlan:
    return ChaosPlan((WorkerKill(worker=worker, at=at),))


#: Deferral with a 4-request slot budget: the routers park requests.
SLOT_CAPACITY_4 = IngressConfig(slot_capacity=4).to_dict()
#: Edge 1 leaves at 4 and comes back at 16 with a second worker; 16 is
#: also a snapshot boundary of ``snapshot_every=8``.
READD_PLAN = ReconfigPlan((
    RemoveEdge(at=4, edge=1),
    AddEdge(at=16, edge=1),
    Rebalance(at=16, num_workers=2),
))
#: Scenario A, seed 0, ``SLOT_CAPACITY_4`` under ``READD_PLAN``.
READD_DIGEST = "78e2cb9efe1a2e6f62cb96e3b069639fe53744c096c2bb3206341dcfadc27692"


def run_books(runtime: ShardRuntime) -> dict:
    """A finished run's counters (heartbeats move with speed) and request stats."""
    counters = runtime.tracer.metrics_snapshot()["counters"]
    counters.pop("serve/heartbeats", None)
    return {"counters": counters, "ingress": runtime.ingress.summary()}


class TestShardEdges:
    @pytest.mark.parametrize(
        "num_edges,num_workers", [(1, 1), (3, 2), (7, 3), (8, 8), (64, 4)]
    )
    def test_partition_covers_disjointly_in_order(self, num_edges, num_workers):
        shards = shard_edges(num_edges, num_workers)
        flat = [e for shard in shards for e in shard]
        assert flat == list(range(num_edges))  # cover, disjoint, contiguous
        assert all(shard for shard in shards)  # never an empty shard
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1  # near-even

    def test_more_workers_than_edges_caps_at_edges(self):
        assert shard_edges(3, 8) == [(0,), (1,), (2,)]

    def test_validation(self):
        with pytest.raises(ValueError, match="num_edges"):
            shard_edges(0, 2)
        with pytest.raises(ValueError, match="num_workers"):
            shard_edges(2, 0)


class TestFrames:
    def test_round_trip_over_a_pipe(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        try:
            frame = {"type": "slot", "worker": 1, "t": 3, "outcomes": [1, 2]}
            send_frame(parent, frame)
            assert recv_frame(child) == frame
        finally:
            parent.close()
            child.close()

    def test_unknown_frame_type_rejected_at_send(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        try:
            with pytest.raises(ValueError, match="frame type"):
                send_frame(parent, {"type": "gossip"})
        finally:
            parent.close()
            child.close()

    def test_malformed_wire_bytes_rejected_at_recv(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        try:
            parent.send_bytes(pickle.dumps(["not", "a", "frame"]))
            with pytest.raises(ValueError, match="malformed"):
                recv_frame(child)
        finally:
            parent.close()
            child.close()

    def test_dead_peer_is_eof_and_drain_yields_the_backlog(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        send_frame(parent, {"type": "heartbeat", "worker": 0})
        send_frame(parent, {"type": "bye", "worker": 0})
        parent.close()
        backlog = list(drain_frames(child))
        assert [f["type"] for f in backlog] == ["heartbeat", "bye"]
        with pytest.raises(EOFError):
            recv_frame(child)
        child.close()

    def test_every_frame_type_is_wire_legal(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        try:
            for kind in FRAME_TYPES:
                send_frame(parent, {"type": kind})
                assert recv_frame(child)["type"] == kind
        finally:
            parent.close()
            child.close()


class TestReleaseTarget:
    def test_lockstep_releases_one_slot(self):
        assert release_target(4, horizon=40, lockstep=True, pipeline_depth=8) == 5

    def test_pipelined_releases_depth_slots(self):
        assert release_target(4, horizon=40, lockstep=False, pipeline_depth=8) == 12

    def test_never_crosses_a_snapshot_boundary(self):
        # completed slot 4, boundary at 8: the furthest safe slot is 7.
        assert (
            release_target(
                4, horizon=40, lockstep=False, pipeline_depth=8, snapshot_every=8
            )
            == 7
        )

    def test_clamped_to_the_horizon(self):
        assert release_target(38, horizon=40, lockstep=False, pipeline_depth=8) == 39


class TestWorkerDeath:
    def test_degrade_completes_with_survivors_bit_identical(self):
        config = shard_config("A", 0, num_workers=3, on_worker_death="degrade")
        tracer = Tracer()
        runtime = ShardRuntime(
            config, tracer=tracer, chaos=kill_plan(1, 10), **FAST
        )
        degraded = runtime.run()
        clean = ShardRuntime(shard_config("A", 0, num_workers=3), **FAST).run()

        # Edges couple only through trading (no feedback into selection), so
        # the survivors' whole trajectories are bit-equal to a clean run.
        survivors = [0, 2]
        assert np.array_equal(
            degraded.selections[:, survivors], clean.selections[:, survivors]
        )
        # The dead shard's edge is pinned offline at its last model.
        assert (degraded.selections[10:, 1] == degraded.selections[9, 1]).all()
        # Its offline slots contribute nothing to system cost or emissions.
        assert not np.array_equal(degraded.emissions, clean.emissions)

        health = runtime.health()
        assert health["status"] == "done"
        shard_status = {s["worker"]: s["failed"] for s in health["shards"]}
        assert shard_status == {0: False, 1: True, 2: False}

        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/shard_deaths"] == 1
        accounted = (
            counters["serve/events_served"]
            + counters.get("serve/events_shed", 0)
            + counters.get("serve/events_dropped_offline", 0)
        )
        assert counters["serve/events_in"] == accounted

    def test_degrade_from_slot_zero_marks_whole_shard_offline(self):
        config = shard_config("B", 0, num_workers=2, on_worker_death="degrade")
        runtime = ShardRuntime(config, chaos=kill_plan(0, 0), **FAST)
        result = runtime.run()
        # Worker 0 owns edge 0 and never reported a slot: no model was ever
        # seen for it, and every one of its slots is synthesized offline.
        assert (result.selections[:, 0] == -1).all()
        assert runtime.health()["shards"][0]["failed"]

    def test_fail_policy_raises_and_names_the_shard(self):
        config = shard_config("A", 0, num_workers=3, on_worker_death="fail")
        runtime = ShardRuntime(config, chaos=kill_plan(2, 5), **FAST)
        with pytest.raises(RuntimeError, match="shard worker 2"):
            runtime.run()

    def test_degraded_partial_run_refuses_results(self):
        config = shard_config("A", 0, num_workers=3, on_worker_death="degrade")
        runtime = ShardRuntime(config, chaos=kill_plan(1, 10), **FAST)
        runtime.run(max_slots=20)
        with pytest.raises(RuntimeError, match="resume"):
            runtime.result()


class TestShardedSnapshots:
    def test_sharded_kill_resume_to_identical_digest(self, tmp_path):
        snap = tmp_path / "state.pkl"
        config = shard_config(
            "A", 0, num_workers=2, snapshot_every=8, snapshot_path=str(snap)
        )
        runtime = ShardRuntime(config, **FAST)
        partial = runtime.run(max_slots=19)  # dies mid-horizon (slot 18)
        assert partial is None and runtime.completed_slot == 18
        assert snap.exists()

        resumed = ShardRuntime.from_snapshot(snap, **FAST)
        assert isinstance(resumed, ShardRuntime)
        assert resumed.completed_slot + 1 == 16  # last boundary before kill
        result = resumed.run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    @staticmethod
    def _set_snapshot_workers(snap, num_workers):
        state = load_snapshot(snap)
        state.config["num_workers"] = num_workers
        save_snapshot(snap, state)

    def test_sharded_snapshot_resumes_in_process(self, tmp_path):
        # Snapshots are worker-agnostic: a sharded run's file restores
        # into the in-process mode and still hits the golden digest.
        snap = tmp_path / "state.pkl"
        config = shard_config(
            "A", 0, num_workers=2, snapshot_every=8, snapshot_path=str(snap)
        )
        ShardRuntime(config, **FAST).run(max_slots=10)
        self._set_snapshot_workers(snap, 0)
        result = ShardRuntime.from_snapshot(snap).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    def test_in_process_snapshot_resumes_sharded(self, tmp_path):
        snap = tmp_path / "state.pkl"
        config = shard_config(
            "A", 0, snapshot_every=8, snapshot_path=str(snap)
        )
        ShardRuntime(config).run(max_slots=10)
        self._set_snapshot_workers(snap, 2)
        resumed = ShardRuntime.from_snapshot(snap, **FAST)
        assert len(resumed.shards) == 2
        result = resumed.run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    def test_partial_sharded_run_without_snapshot_cannot_continue(self):
        runtime = ShardRuntime(shard_config("B", 0, num_workers=2), **FAST)
        runtime.run(max_slots=5)
        # The edge state exited with the workers; only a snapshot file can
        # continue the run, and the runtime says so instead of corrupting it.
        with pytest.raises(RuntimeError, match="snapshot"):
            runtime.run()


class TestShardTraceMerge:
    def test_merged_shard_traces_match_the_single_process_summary(
        self, tmp_path
    ):
        config = shard_config("B", 1, num_workers=2)
        parent_log = tmp_path / "parent.jsonl"
        tracer = Tracer([JsonlSink(parent_log)])
        ShardRuntime(
            config, tracer=tracer, shard_trace_base=parent_log, **FAST
        ).run()
        tracer.close()
        shard_logs = sorted(tmp_path.glob("parent.jsonl.shard*"))
        assert [log.name for log in shard_logs] == [
            "parent.jsonl.shard0", "parent.jsonl.shard1"
        ]

        single_log = tmp_path / "single.jsonl"
        single_tracer = Tracer([JsonlSink(single_log)])
        ShardRuntime(shard_config("B", 1), tracer=single_tracer).run()
        single_tracer.close()

        merged = summarize_traces([parent_log, *shard_logs])
        single = summarize_trace(single_log)
        # Worker lifecycle events count the workers (two shards against one
        # inline worker); everything else must match exactly.
        assert merged.event_counts.pop("worker_spawn") == 2
        assert single.event_counts.pop("worker_spawn") == 1
        merged = dataclasses.replace(merged, events_total=merged.events_total - 2)
        single = dataclasses.replace(single, events_total=single.events_total - 1)
        assert merged == single


class TestFleetSmoke:
    def test_64_edges_4_workers_shape_load_all_accounted(self):
        scenario = ScenarioConfig(
            dataset="synthetic",
            num_edges=64,
            horizon=12,
            num_models=4,
            n_test=200,
            seed=9,
        )
        config = ServeConfig(
            scenario=scenario,
            seed=9,
            adapter="shape",
            shape="sawtooth",
            shape_total_events=6000,
            shape_seed=9,
            virtual_clock=False,
            backpressure="shed",
            num_workers=4,
        )
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer, **FAST)
        result = runtime.run()
        assert result is not None and result.num_edges == 64
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/events_in"] == 6000
        accounted = (
            counters["serve/events_served"]
            + counters.get("serve/events_shed", 0)
            + counters.get("serve/events_dropped_offline", 0)
        )
        assert counters["serve/events_in"] == accounted
        assert counters["serve/slots_completed"] == 12
        health = runtime.health()
        assert len(health["shards"]) == 4
        # Each worker reports its queues with its last slot: all drained.
        assert [q["edge"] for q in health["queues"]] == list(range(64))
        assert all(q["depth_items"] == 0 for q in health["queues"])
        assert all(q["depth_events"] == 0 for q in health["queues"])

    def test_heartbeats_flow_during_slow_slots(self):
        scenario = ScenarioConfig(
            dataset="synthetic", num_edges=2, horizon=6, seed=5
        )
        config = ServeConfig(
            scenario=scenario,
            seed=5,
            virtual_clock=False,
            slot_duration=0.1,
            num_workers=2,
        )
        tracer = Tracer()
        seen = []
        runtime = ShardRuntime(config, tracer=tracer, heartbeat_interval=0.02)
        dispatch = runtime._dispatch

        def record(handle, frame):
            if frame["type"] == "heartbeat":
                seen.append(frame["queues"])
            dispatch(handle, frame)

        runtime._dispatch = record
        runtime.run()
        assert tracer.metrics_snapshot()["counters"]["serve/heartbeats"] > 0
        # Heartbeats carry the worker's queue stats for /healthz.
        assert seen and all(set(q) <= {0, 1} for q in seen)
        assert {"depth_events", "depth_items", "peak_events", "rejected"} == set(
            seen[0][next(iter(seen[0]))]
        )


class TestChaosPlans:
    def plan(self) -> ChaosPlan:
        return ChaosPlan((
            WorkerKill(worker=1, at=10),
            WorkerStall(worker=0, at=5, seconds=0.1),
            TransportDrop(worker=0, at=3, count=2),
            RandomKills(probability=0.2, start=4, end=20, max_per_worker=1),
        ))

    def test_json_round_trip(self):
        plan = self.plan()
        assert ChaosPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        from repro.serve import load_chaos_plan

        path = tmp_path / "chaos.json"
        path.write_text(self.plan().to_json())
        assert load_chaos_plan(path) == self.plan()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="gremlin"):
            ChaosPlan.from_dict({"chaos": [{"kind": "gremlin", "at": 1}]})

    @pytest.mark.parametrize(
        "payload",
        [{}, {"chaos_": [{"kind": "worker_kill", "worker": 1, "at": 10}]},
         {"chaos": {"kind": "worker_kill"}}, {"chaos": None}],
    )
    def test_missing_or_misspelled_list_rejected(self, payload):
        # A typo in a plan file must not load as an empty plan that runs clean.
        with pytest.raises(ValueError, match='"chaos" list'):
            ChaosPlan.from_dict(payload)

    def test_empty_list_is_an_empty_plan(self):
        assert ChaosPlan.from_json('{"chaos": []}').is_empty

    def test_realize_is_deterministic_and_bounded(self):
        plan = self.plan()
        kwargs = dict(num_workers=3, horizon=40, seed=0)
        first = realize_chaos(plan, **kwargs)
        assert first == realize_chaos(plan, **kwargs)
        for schedule in first.values():
            for at in schedule.kills:
                assert 0 <= at < 40
        # RandomKills honors max_per_worker on top of the named kill.
        assert all(len(s.kills) <= 2 for s in first.values())

    def test_realize_ignores_out_of_range_workers(self):
        plan = ChaosPlan((WorkerKill(worker=7, at=1),))
        assert realize_chaos(plan, num_workers=2, horizon=40, seed=0) == {}


class TestTransportFaults:
    def test_injected_transient_errors_are_retried(self):
        from repro.serve.frames import arm_transport_faults

        parent, child = multiprocessing.Pipe(duplex=True)
        try:
            arm_transport_faults(3)
            send_frame(parent, {"type": "heartbeat", "worker": 0})
            assert recv_frame(child)["type"] == "heartbeat"
        finally:
            arm_transport_faults(0)
            parent.close()
            child.close()

    def test_transport_drop_chaos_is_invisible_in_the_results(self):
        # The bounded retry masks the drops entirely: the run still hits
        # the golden digest.
        config = shard_config("A", 0, num_workers=2)
        chaos = ChaosPlan((TransportDrop(worker=0, at=3, count=2),))
        result = ShardRuntime(config, chaos=chaos, **FAST).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    def test_worker_stall_only_delays_the_run(self):
        config = shard_config("A", 0, num_workers=2)
        chaos = ChaosPlan((WorkerStall(worker=1, at=5, seconds=0.2),))
        result = ShardRuntime(config, chaos=chaos, **FAST).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]


#: Tight restart knobs so supervised-restart tests finish quickly.
RESTART = dict(
    on_worker_death="restart", restart_backoff_s=0.01, restart_backoff_max_s=0.1
)


class TestWorkerRestart:
    def test_restart_recovers_with_exact_accounting(self):
        config = shard_config("A", 0, num_workers=3, **RESTART)
        tracer = Tracer()
        runtime = ShardRuntime(
            config, tracer=tracer, chaos=kill_plan(1, 10), **FAST
        )
        healed = runtime.run()
        clean_tracer = Tracer()
        clean = ShardRuntime(
            shard_config("A", 0, num_workers=3), tracer=clean_tracer, **FAST
        ).run()

        # Survivors are bit-identical to an unfaulted run; the killed
        # shard's edge went offline only for the replayed gap.
        survivors = [0, 2]
        assert np.array_equal(
            healed.selections[:, survivors], clean.selections[:, survivors]
        )
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/shard_deaths"] == 1
        assert counters["serve/restarts"] == 1
        # Full recovery: every arrival is still accounted for — the
        # replayed offline slots carry their real arrival counts, so even
        # events_in matches the clean run exactly.
        accounted = (
            counters["serve/events_served"]
            + counters.get("serve/events_shed", 0)
            + counters.get("serve/events_dropped_offline", 0)
        )
        assert counters["serve/events_in"] == accounted
        clean_counters = clean_tracer.metrics_snapshot()["counters"]
        assert counters["serve/events_in"] == clean_counters["serve/events_in"]
        recovery = tracer.metrics_snapshot()["timers"]["serve/stage/recovery"]
        assert recovery["count"] == 1
        assert recovery["p99_s"] == recovery["max_s"] > 0.0

        health = runtime.health()
        assert health["status"] == "done"
        by_worker = {s["worker"]: s for s in health["shards"]}
        assert not any(s["failed"] for s in by_worker.values())
        assert by_worker[1]["generation"] == 1

    def test_inline_worker_exception_restarts_with_exact_accounting(
        self, monkeypatch
    ):
        # An inline worker dies by raising; the same supervisor path
        # respawns it on the parent's loop.  Inline workers take no
        # checkpoints, so the respawn re-steps from the run's start.
        from repro.sim.kernel import EdgeSlotKernel

        step = EdgeSlotKernel.step
        fired = []

        def flaky(kernel, t, count, **kwargs):
            if t == 10 and kernel.edge == 1 and not fired:
                fired.append(t)
                raise RuntimeError("edge 1 crashed")
            return step(kernel, t, count, **kwargs)

        monkeypatch.setattr(EdgeSlotKernel, "step", flaky)
        tracer = Tracer()
        runtime = ShardRuntime(shard_config("A", 0, **RESTART), tracer=tracer)
        assert runtime.run() is not None
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/shard_deaths"] == 1
        assert counters["serve/restarts"] == 1
        assert counters["serve/events_in"] == (
            counters["serve/events_served"]
            + counters.get("serve/events_shed", 0)
            + counters.get("serve/events_dropped_offline", 0)
        )
        assert runtime.health()["shards"][0]["generation"] == 1

    def test_restart_run_is_reproducible_against_itself(self):
        def digest():
            config = shard_config("A", 0, num_workers=3, **RESTART)
            return result_digest(
                ShardRuntime(config, chaos=kill_plan(1, 10), **FAST).run()
            )

        assert digest() == digest()

    def test_ingress_state_survives_a_restart(self):
        # Each edge's ingress adapter state rides the restart checkpoints; a
        # respawned worker must resume its request streams exactly.
        ingress = IngressConfig(slot_capacity=4).to_dict()

        def run(chaos=None, **overrides):
            config = shard_config(
                "A", 0, num_workers=2, ingress=ingress, **overrides
            )
            tracer = Tracer()
            runtime = ShardRuntime(config, tracer=tracer, chaos=chaos, **FAST)
            digest = result_digest(runtime.run())
            return runtime.ingress, tracer.metrics_snapshot()["counters"], digest

        stats, counters, digest = run(kill_plan(1, 10), **RESTART)
        clean_stats, _, _ = run()

        assert counters["serve/restarts"] == 1
        served = counters["serve/events_served"]
        shed = counters.get("serve/events_shed", 0)
        offline = counters.get("serve/events_dropped_offline", 0)
        assert counters["serve/events_in"] == served + shed + offline
        assert stats.accounting_ok(served, shed, offline)
        assert stats.requests_in == clean_stats.requests_in
        assert run(kill_plan(1, 10), **RESTART)[2] == digest

    def test_a_respawn_keeps_its_predecessors_reported_slots(self):
        # Worker 0 stalls at slot 5, so the fold stops at 4 while worker 1
        # serves 5 and 6 and dies at 7.  Its respawn re-steps 5 and 6
        # silently, since the parent holds their outcomes, and replays
        # only slot 7, up to the release cap at the 8-slot checkpoint.
        from repro.obs import InMemorySink

        sink = InMemorySink()
        tracer = Tracer([sink])
        config = shard_config(
            "A", 0, num_workers=2, virtual_clock=False, **RESTART
        )
        chaos = ChaosPlan((
            WorkerStall(worker=0, at=5, seconds=1.0),
            WorkerKill(worker=1, at=7),
        ))
        ShardRuntime(config, tracer=tracer, chaos=chaos, **FAST).run()
        (restart,) = sink.of_type("worker_restart")
        assert restart.replay_from == 7
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/events_dropped_offline"] == 36
        assert counters["serve/events_in"] == 4867

    def test_simultaneous_deaths_restart_all_workers(self):
        config = shard_config("A", 0, num_workers=3, **RESTART)
        chaos = ChaosPlan((
            WorkerKill(worker=0, at=6),
            WorkerKill(worker=2, at=6),
        ))
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer, chaos=chaos, **FAST)
        healed = runtime.run()
        clean = ShardRuntime(shard_config("A", 0, num_workers=3), **FAST).run()

        assert np.array_equal(healed.selections[:, 1], clean.selections[:, 1])
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/shard_deaths"] == 2
        assert counters["serve/restarts"] == 2
        accounted = (
            counters["serve/events_served"]
            + counters.get("serve/events_shed", 0)
            + counters.get("serve/events_dropped_offline", 0)
        )
        assert counters["serve/events_in"] == accounted
        assert not any(s["failed"] for s in runtime.health()["shards"])

    def test_simultaneous_deaths_degrade_keeps_accounting(self):
        config = shard_config("A", 0, num_workers=3, on_worker_death="degrade")
        chaos = ChaosPlan((
            WorkerKill(worker=0, at=6),
            WorkerKill(worker=2, at=6),
        ))
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer, chaos=chaos, **FAST)
        degraded = runtime.run()
        clean = ShardRuntime(shard_config("A", 0, num_workers=3), **FAST).run()

        assert np.array_equal(
            degraded.selections[:, 1], clean.selections[:, 1]
        )
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/shard_deaths"] == 2
        accounted = (
            counters["serve/events_served"]
            + counters.get("serve/events_shed", 0)
            + counters.get("serve/events_dropped_offline", 0)
        )
        assert counters["serve/events_in"] == accounted
        failed = {s["worker"] for s in runtime.health()["shards"] if s["failed"]}
        assert failed == {0, 2}

    def test_restart_budget_exhaustion_falls_back_to_degrade(self):
        config = shard_config(
            "A", 0, num_workers=3, max_restarts=1, **RESTART
        )
        chaos = ChaosPlan((
            WorkerKill(worker=1, at=4),
            WorkerKill(worker=1, at=12),
        ))
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer, chaos=chaos, **FAST)
        result = runtime.run()
        assert result is not None
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/shard_deaths"] == 2
        assert counters["serve/restarts"] == 1
        assert runtime.health()["shards"][1]["failed"]
        # From the second death on, the shard's edge is pinned offline.
        assert (result.selections[13:, 1] == result.selections[12, 1]).all()

    def test_a_kill_reaches_a_worker_a_rebalance_adds(self):
        # The chaos plan is realized against the largest fleet the run
        # reaches, so a kill aimed at the second worker of a 1 -> 2 worker
        # rebalance fires, and the restart heals it.
        plan = ReconfigPlan((Rebalance(at=8, num_workers=2),))
        config = shard_config("A", 0, num_workers=1, **RESTART)

        def books(chaos):
            tracer = Tracer()
            ShardRuntime(
                config, tracer=tracer, reconfig=plan, chaos=chaos, **FAST
            ).run()
            return tracer.metrics_snapshot()["counters"]

        healed, clean = books(kill_plan(1, 12)), books(None)
        assert healed["serve/shard_deaths"] == 1
        assert healed["serve/restarts"] == 1
        assert healed["serve/events_in"] == (
            healed["serve/events_served"]
            + healed.get("serve/events_shed", 0)
            + healed.get("serve/events_dropped_offline", 0)
        )
        assert healed["serve/events_in"] == clean["serve/events_in"]

    def test_lifecycle_events_emitted(self):
        from repro.obs import InMemorySink

        sink = InMemorySink()
        config = shard_config("A", 0, num_workers=3, **RESTART)
        ShardRuntime(
            config, tracer=Tracer([sink]), chaos=kill_plan(1, 10), **FAST
        ).run()
        spawns = sink.of_type("worker_spawn")
        deaths = sink.of_type("worker_death")
        restarts = sink.of_type("worker_restart")
        assert len(spawns) == 4  # 3 initial + 1 respawn
        assert [e.generation for e in spawns].count(1) == 1
        assert len(deaths) == 1 and deaths[0].worker == 1
        assert deaths[0].policy == "restart"
        assert len(restarts) == 1 and restarts[0].attempt == 1
        assert restarts[0].replay_from <= restarts[0].t

    def test_worker_traceback_travels_to_the_fail_exception(self, tmp_path):
        # A worker-side crash (a real exception, not a kill) surfaces with
        # the worker's traceback attached under on_worker_death='fail' —
        # here, worker 1's trace log path is taken by a directory.
        base = tmp_path / "run.jsonl"
        (tmp_path / "run.jsonl.shard1").mkdir()
        runtime = ShardRuntime(
            shard_config("A", 0, num_workers=3, on_worker_death="fail"),
            shard_trace_base=base,
            **FAST,
        )
        with pytest.raises(RuntimeError) as excinfo:
            runtime.run()
        message = str(excinfo.value)
        assert "shard worker 1" in message
        assert "Traceback" in message  # the worker-side traceback rode along


class TestReconfig:
    def test_plan_round_trip_and_loading(self, tmp_path):
        from repro.serve import AddEdge, Rebalance, ReconfigPlan, RemoveEdge
        from repro.serve import load_reconfig_plan

        plan = ReconfigPlan((
            RemoveEdge(at=4, edge=0),
            AddEdge(at=12, edge=0),
            Rebalance(at=20, num_workers=3),
        ))
        assert ReconfigPlan.from_json(plan.to_json()) == plan
        path = tmp_path / "reconfig.json"
        path.write_text(plan.to_json())
        assert load_reconfig_plan(path) == plan
        assert plan.barriers() == (4, 12, 20)

    @pytest.mark.parametrize(
        "payload",
        [{}, {"reconfig_": [{"kind": "remove_edge", "at": 4, "edge": 0}]},
         {"reconfig": {"kind": "remove_edge"}}, {"reconfig": None}],
    )
    def test_missing_or_misspelled_list_rejected(self, payload):
        from repro.serve import ReconfigPlan

        # A typo in a plan file must not load as an empty plan that runs clean.
        with pytest.raises(ValueError, match='"reconfig" list'):
            ReconfigPlan.from_dict(payload)

    def test_empty_list_is_an_empty_plan(self):
        from repro.serve import ReconfigPlan

        assert ReconfigPlan.from_json('{"reconfig": []}') == ReconfigPlan(())

    def test_pure_rebalance_is_bit_identical_to_golden(self):
        from repro.serve import Rebalance, ReconfigPlan

        config = shard_config("A", 0, num_workers=2)
        plan = ReconfigPlan((Rebalance(at=8, num_workers=3),))
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer, reconfig=plan, **FAST)
        result = runtime.run()
        # Repartitioning moves no state and rescales nothing: the digest
        # still matches the unreconfigured golden bit for bit.
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]
        assert runtime.health()["num_workers"] == 3
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/reconfigs"] == 1

    def test_remove_edge_pins_it_offline_and_is_reproducible(self):
        from repro.serve import ReconfigPlan, RemoveEdge

        def run_once():
            config = shard_config("A", 0, num_workers=2)
            plan = ReconfigPlan((RemoveEdge(at=10, edge=2),))
            runtime = ShardRuntime(config, reconfig=plan, **FAST)
            return runtime, runtime.run()

        runtime, result = run_once()
        assert (result.selections[10:, 2] == result.selections[9, 2]).all()
        assert runtime.health()["active_edges"] == 2
        _, again = run_once()
        assert result_digest(result) == result_digest(again)

    def test_remove_then_readd_catches_the_edge_back_up(self):
        from repro.serve import AddEdge, ReconfigPlan, RemoveEdge

        def run_once():
            config = shard_config("A", 0, num_workers=2)
            plan = ReconfigPlan((
                RemoveEdge(at=4, edge=0),
                AddEdge(at=12, edge=0),
            ))
            return ShardRuntime(config, reconfig=plan, **FAST).run()

        result = run_once()
        # Offline while inactive, live again after readmission.
        assert (result.selections[4:12, 0] == result.selections[3, 0]).all()
        assert result_digest(result) == result_digest(run_once())

    @pytest.mark.parametrize(
        "ingress",
        [IngressConfig(slot_capacity=4), IngressConfig()],
        ids=["slot-capacity-4", "default-ingress"],
    )
    @pytest.mark.parametrize(
        "ops",
        [
            (("remove", 10, 2),),
            (("remove", 4, 0), ("add", 12, 0)),
        ],
        ids=["remove-2-at-10", "remove-0-at-4-readd-at-12"],
    )
    def test_a_removed_edge_keeps_resolving_its_requests(self, ops, ingress):
        from repro.serve import AddEdge, ReconfigPlan, RemoveEdge

        kinds = {"remove": RemoveEdge, "add": AddEdge}
        plan = ReconfigPlan(
            tuple(kinds[kind](at=at, edge=edge) for kind, at, edge in ops)
        )
        config = shard_config(
            "A", 0, num_workers=2, ingress=ingress.to_dict()
        )
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer, reconfig=plan, **FAST)
        runtime.run()
        counters = tracer.metrics_snapshot()["counters"]
        served = counters["serve/events_served"]
        shed = counters["serve/events_shed"]
        offline = counters["serve/events_dropped_offline"]
        # The parent keeps stepping a removed edge's router: its arrivals
        # are still offered, and the requests parked there still resolve,
        # as deadline misses in offline slots.  4,867 is what the
        # unreconfigured run takes in.
        assert runtime.ingress.requests_in == 4867
        assert runtime.ingress.accounting_ok(served, shed, offline)
        assert offline > 0

    @pytest.mark.parametrize("ingress", [None, IngressConfig()], ids=["plain", "ingress"])
    def test_soak_counts_a_removed_edges_offered_load_offline(self, ingress):
        from repro.serve import ReconfigPlan, RemoveEdge
        from repro.serve.soak import run_soak

        report = run_soak(
            "spike",
            num_edges=8,
            num_workers=2,
            horizon=48,
            total_events=4000,
            reconfig=ReconfigPlan((RemoveEdge(at=20, edge=3),)),
            ingress=ingress,
        )
        assert report.accounting_ok and report.reconfigs == 1
        assert report.events_in == report.total_events == 4000
        assert report.events_dropped_offline > 0
        if ingress is not None:
            summary = report.ingress
            assert summary["requests_in"] == 4000
            assert summary["deadline_misses"] >= report.events_dropped_offline

    def test_reconfig_rejects_out_of_horizon_ops(self):
        late = ReconfigPlan((Rebalance(at=400, num_workers=1),))
        with pytest.raises(ValueError, match="horizon"):
            ShardRuntime(shard_config("A", 0, num_workers=2), reconfig=late)

    def test_chaos_plans_need_worker_processes(self):
        # A chaos kill ends its process, which inline is the parent's.
        in_process = shard_config("A", 0)
        with pytest.raises(ValueError, match="num_workers >= 1"):
            ShardRuntime(in_process, chaos=kill_plan(0, 35))
        ShardRuntime(in_process, reconfig=ReconfigPlan((Rebalance(at=8),)))
        ShardRuntime(shard_config("A", 0, num_workers=1), chaos=kill_plan(0, 35))

    @staticmethod
    def readd_config(workers, snap):
        return shard_config(
            "A", 0, num_workers=workers, ingress=SLOT_CAPACITY_4,
            snapshot_every=8, snapshot_path=str(snap),
        )

    @pytest.fixture(scope="class")
    def readd_books(self, tmp_path_factory):
        """The books of the uninterrupted in-process run under the plan."""
        snap = tmp_path_factory.mktemp("readd") / "full.pkl"
        runtime = ShardRuntime(
            self.readd_config(0, snap), tracer=Tracer(), reconfig=READD_PLAN
        )
        assert result_digest(runtime.run()) == READD_DIGEST
        return run_books(runtime)

    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_a_plan_gives_one_digest_and_exact_books_at_any_worker_count(
        self, workers, readd_books, tmp_path
    ):
        runtime = ShardRuntime(
            self.readd_config(workers, tmp_path / "s.pkl"),
            tracer=Tracer(),
            reconfig=READD_PLAN,
            **FAST,
        )
        result = runtime.run()
        assert result_digest(result) == READD_DIGEST
        books = run_books(runtime)
        assert books == readd_books
        counters = books["counters"]
        assert counters["serve/reconfigs"] == 3
        assert counters["serve/events_served"] == int(result.arrivals.sum())
        assert counters["serve/events_in"] == books["ingress"]["requests_in"] == 4867
        assert runtime.ingress.accounting_ok(
            counters["serve/events_served"],
            counters["serve/events_shed"],
            counters["serve/events_dropped_offline"],
        )

    @pytest.mark.parametrize("stop", [8, 16, 24, 32])
    def test_a_snapshot_mid_plan_resumes_to_the_whole_run(
        self, stop, readd_books, tmp_path
    ):
        # The record carries the plan, the book of every edge (the removed
        # one too), the parent's adapter of the removed edge and the whole
        # run's counters and request stats.  A stop at 16 applies that
        # slot's barrier before its snapshot.
        snap = tmp_path / "state.pkl"
        ShardRuntime(self.readd_config(0, snap), reconfig=READD_PLAN).run(
            max_slots=stop
        )
        written = snap.read_bytes()
        for workers in (0, 1, 2):
            snap.write_bytes(written)  # the resumed run snapshots on
            state = load_snapshot(snap)
            assert state.next_slot == stop
            assert state.reconfig == READD_PLAN.to_dict()
            state.config["num_workers"] = workers
            runtime = ShardRuntime.from_state(state, tracer=Tracer(), **FAST)
            assert result_digest(runtime.run()) == READD_DIGEST
            assert run_books(runtime) == readd_books

    def test_a_resume_refuses_a_second_plan(self, tmp_path):
        snap = tmp_path / "state.pkl"
        config = shard_config("A", 0, snapshot_every=8, snapshot_path=str(snap))
        ShardRuntime(config, reconfig=READD_PLAN).run(max_slots=8)
        with pytest.raises(ValueError, match="reconfig"):
            ShardRuntime.from_snapshot(snap, reconfig=READD_PLAN)


class TestSoakCli:
    def test_soak_smoke_single_shape(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out = tmp_path / "soak.json"
        code = main([
            "soak", "--smoke", "--shape", "spike", "--output", str(out)
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["format_version"] == SOAK_FORMAT_VERSION
        (report,) = payload["reports"]
        assert report["shape"] == "spike"
        assert report["accounting_ok"] is True
        assert report["events_in"] == 2000
        assert report["worker_deaths"] == 0
        assert report["recovery_ok"] is True
        for stage in ("queue", "serve", "trade", "slot"):
            assert report["stages"][stage]["count"] > 0
            assert report["stages"][stage]["p95_s"] >= 0.0

    def test_soak_chaos_smoke_heals_and_accounts(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.serve import ChaosPlan, WorkerKill

        plan_path = tmp_path / "chaos.json"
        plan_path.write_text(
            ChaosPlan((WorkerKill(worker=1, at=10),)).to_json()
        )
        out = tmp_path / "soak.json"
        code = main([
            "soak",
            "--smoke",
            "--shape", "sawtooth",
            "--chaos", str(plan_path),
            "--recovery-p99", "30.0",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        (report,) = payload["reports"]
        assert report["worker_deaths"] == 1
        assert report["restarts"] == 1
        assert report["degraded_workers"] == 0
        assert report["recovery_ok"] is True
        assert report["accounting_ok"] is True
        # Full recovery: the replayed slots carried their real arrivals.
        assert report["events_in"] == 2000
        assert report["stages"]["recovery"]["count"] == 1

    def test_soak_report_is_strict_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant} in the report")

        # A restart policy with no deaths leaves the recovery stage empty.
        code = main([
            "soak", "--smoke", "--shape", "constant",
            "--on-worker-death", "restart",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        (report,) = payload["reports"]
        recovery = report["stages"]["recovery"]
        assert recovery["count"] == 0
        assert recovery["mean_s"] is None
        assert recovery["p50_s"] is recovery["p95_s"] is recovery["p99_s"] is None
        for stage in ("queue", "serve", "trade", "slot"):
            stats = report["stages"][stage]
            assert stats["p50_s"] <= stats["p95_s"] <= stats["p99_s"] <= stats["max_s"]


class TestRuntimeMetrics:
    def test_untraced_runtimes_count_only_their_own_run(self):
        config = ServeConfig(
            scenario=ScenarioConfig(
                dataset="synthetic", num_edges=3, horizon=8, seed=0
            )
        )
        first = ShardRuntime(config)
        first.run()
        second = ShardRuntime(config)
        second.run()
        for runtime in (first, second):
            metrics = runtime.metrics()
            assert metrics["counters"]["serve/slots_completed"] == 8
            assert metrics["counters"]["serve/events_in"] == 631
            assert metrics["timers"]["serve/stage/slot"]["count"] == 8
            assert metrics["timers"]["serve/stage/serve"]["count"] == 3 * 8
        assert first.tracer is not second.tracer
        assert not second.tracer.enabled
