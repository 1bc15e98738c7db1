"""Tests for repro.serve: the async streaming edge-fleet runtime.

The headline contracts:

* **Parity** — a virtual-clock serve run is bit-identical to
  ``Simulator.run``, locked against the same golden digests, for every
  stream adapter that reuses the simulator's RNG streams.
* **Resilience** — a run killed mid-horizon resumes from its snapshot and
  completes to the *same* digest as an uninterrupted run.
* **Backpressure accounting** — under wall-clock load every event is
  accounted for: ``events_in == served + shed + dropped_offline``, and
  queue depth stays bounded.
"""

from __future__ import annotations

import asyncio
import copy
import json
import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import model_selection
from repro.faults.plan import (
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    MarketOutage,
    TradeRejection,
)
from repro.obs import JsonlSink, Tracer, summarize_trace
from repro.serve import (
    SNAPSHOT_VERSION,
    ServeConfig,
    ShardAdmission,
    ShardRuntime,
    StatusServer,
    VirtualClock,
    WallClock,
    arrival_counts_from_trace,
    load_snapshot,
    save_snapshot,
)
from repro.serve.runtime import build_serve_kernels
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from repro.spec import RunSpec
from tests.test_golden_digests import GOLDEN_DIGESTS, SCENARIO_CONFIGS


#: Every fault kind at once: offline, feedback-lost and failed-download
#: edge-slots, plus market outages and trade rejections.
FIVE_FAULTS = FaultPlan(
    (
        EdgeOutage(edge=0, start=10, end=20),
        FeedbackLoss(0.1),
        DownloadFailure(0.2),
        MarketOutage(15, 25),
        TradeRejection(0.1),
    )
)


def serve_config(scenario_name="A", seed=0, **overrides):
    return ServeConfig(
        scenario=SCENARIO_CONFIGS[scenario_name],
        seed=seed,
        label="Ours-Ours",
        **overrides,
    )


def legacy_states(record) -> tuple[dict, dict]:
    """The record's book and parent adapters in the object layout of version 3.

    Versions 1 to 3 pickled each edge's policy and data ``Generator`` and
    each poisson adapter's ``ArrivalProcess`` (under ingress, its
    ``base``): build them from the config and load the states into them.
    """
    _, adapters, kernels, _ = build_serve_kernels(ServeConfig.from_dict(record.config))

    def kernel(e, state):
        if state is None:
            return None
        kernels[e].load_state(state)
        return {**state, "policy": kernels[e].policy, "data_rng": kernels[e].data_rng}

    def adapter(e, state):
        if state is None or "rng" not in state and "base" not in state:
            return state
        if "base" in state:
            return {**state, "base": adapter(e, state["base"])}
        adapters[e].load_state(state)
        return {"arrivals": copy.deepcopy(adapters[e].arrivals)}

    book = {
        e: replace(
            entry, kernel=kernel(e, entry.kernel), adapter=adapter(e, entry.adapter)
        )
        for e, entry in record.edges.items()
    }
    parent = {e: adapter(e, state) for e, state in record.parent_adapters.items()}
    return book, parent


def rewrite_as_version_3(snap) -> dict:
    """Rewrite a snapshot file in the version-3 layout; returns its payload."""
    record = load_snapshot(snap)
    book, parent = legacy_states(record)
    payload = {**vars(record), "edges": book, "parent_adapters": parent, "version": 3}
    snap.write_bytes(pickle.dumps(payload))
    return payload


def rewrite_as_version_2(snap) -> dict:
    """Rewrite a snapshot file in the version-2 layout; returns its payload.

    Version 2 held positional per-edge kernel and adapter lists (in the
    object layout of version 3) and no book modes, parent adapters,
    counters, ingress stats or plan.
    """
    record = load_snapshot(snap)
    book, _ = legacy_states(record)
    entries = [book[e] for e in sorted(book)]
    payload = {
        "version": 2,
        "label": record.label,
        "config": record.config,
        "next_slot": record.next_slot,
        "edges": [entry.kernel for entry in entries],
        "adapters": [entry.adapter for entry in entries],
        "trading": record.trading,
        "arrays": record.arrays,
    }
    snap.write_bytes(pickle.dumps(payload))
    return payload


class TestServeConfig:
    def test_defaults_are_virtual_and_blocking(self):
        config = ServeConfig()
        assert config.virtual_clock and config.backpressure == "block"
        assert config.adapter == "poisson"

    def test_effective_label(self):
        assert ServeConfig().effective_label == "Ours-Ours"
        assert ServeConfig(label="x").effective_label == "x"

    def test_virtual_clock_rejects_shedding(self):
        # Shedding breaks lockstep parity by construction, so the config
        # refuses the combination rather than silently losing determinism.
        with pytest.raises(ValueError, match="shed"):
            ServeConfig(virtual_clock=True, backpressure="shed")

    def test_replay_adapter_requires_log(self):
        with pytest.raises(ValueError, match="replay"):
            ServeConfig(adapter="replay")

    def test_snapshots_require_path(self):
        with pytest.raises(ValueError, match="snapshot_path"):
            ServeConfig(snapshot_every=8)

    def test_unknown_adapter_and_backpressure_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(adapter="kafka")
        with pytest.raises(ValueError):
            ServeConfig(virtual_clock=False, backpressure="explode")

    def test_dict_round_trip_with_nested_scenario(self):
        config = serve_config(
            "B", seed=3, snapshot_every=8, snapshot_path="s.pkl"
        )
        clone = ServeConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ServeConfig.from_dict({"bogus_knob": 1})

    def test_from_file(self, tmp_path):
        path = tmp_path / "serve.json"
        config = serve_config("A", seed=1)
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        assert ServeConfig.from_file(path) == config

    def test_with_overrides(self):
        config = ServeConfig().with_overrides(seed=9, queue_capacity=32)
        assert config.seed == 9 and config.queue_capacity == 32


class TestClocksAndQueues:
    def test_release_is_monotone_and_wakes_waiters(self):
        async def scenario():
            clock = VirtualClock()
            order = []

            async def waiter(t):
                await clock.wait_for_slot(t)
                order.append(t)

            tasks = [asyncio.create_task(waiter(t)) for t in (2, 0, 1)]
            await asyncio.sleep(0)
            await clock.release(1)
            await clock.release(0)  # lower target is a no-op
            await asyncio.sleep(0)
            assert clock.released == 1
            assert sorted(order) == [0, 1]
            await clock.release(2)
            await asyncio.gather(*tasks)
            return order

        order = asyncio.run(scenario())
        assert sorted(order) == [0, 1, 2]

    def test_wall_clock_paces_on_loop_time(self):
        async def scenario():
            clock = WallClock(0.01)
            await clock.release(5)
            loop = asyncio.get_running_loop()
            start = loop.time()
            await clock.pace(0)
            await clock.pace(3)
            return loop.time() - start

        assert asyncio.run(scenario()) >= 0.025

    def test_wall_clock_first_paced_slot_starts_now(self):
        # A worker that begins mid-horizon (resume, respawn) serves its
        # first slot at once instead of sleeping t * slot_duration first.
        async def scenario():
            clock = WallClock(0.05)
            loop = asyncio.get_running_loop()
            start = loop.time()
            await clock.pace(40)
            first = loop.time() - start
            await clock.pace(43)
            return first, loop.time() - start

        first, total = asyncio.run(scenario())
        assert first < 0.05
        assert total >= 0.14

    def test_slot_started_on_both_clocks(self):
        async def scenario():
            virtual = VirtualClock()
            free = WallClock(0.0)
            paced = WallClock(0.05)
            before = paced.started(7)
            await paced.pace(7)
            return (
                virtual.started(10**6),
                free.started(10**6),
                before,
                paced.started(7),
                paced.started(8),
            )

        assert asyncio.run(scenario()) == (True, True, False, True, False)

    def test_queue_blocks_until_room_and_preserves_fifo(self):
        queues = ShardAdmission([0], 10, shed=False, start=0)
        assert queues.feed(np.array([[6]]), 1.0) == 1
        # No room: block mode holds the burst without counting a rejection,
        # and offers it again, with its first feed time, once a take has
        # made room.
        assert queues.feed(np.array([[6]]), 2.0) == 1
        assert queues.stats()[0].rejected == 0
        first = queues.take(1)
        assert queues.feed(None, 3.0) == 2
        second = queues.take(2)
        assert [
            (counts.tolist(), shed.tolist(), fed_at.tolist())
            for counts, shed, fed_at in (first, second)
        ] == [([[6]], [[False]], [[1.0]]), ([[6]], [[False]], [[2.0]])]
        assert queues.stats()[0].items == 0

    def test_nonblocking_put_rejects_and_counts(self):
        queues = ShardAdmission([0], 10, shed=True, start=0)
        queues.feed(np.array([[6, 6]]), 0.0)
        assert queues.stats()[0].rejected == 1
        # shed markers weigh nothing and always fit
        assert queues.stats()[0].events == 6
        counts, shed, _ = queues.take(2)
        assert (counts.tolist(), shed.tolist()) == ([[6, 6]], [[False, True]])

    def test_oversized_burst_admitted_only_when_empty(self):
        queues = ShardAdmission([0], 4, shed=True, start=0)
        queues.feed(np.array([[50, 1]]), 0.0)
        assert queues.stats()[0].peak_events == 50
        assert queues.stats()[0].rejected == 1
        queues.take(1)
        queues.feed(np.array([[1]]), 1.0)
        assert queues.stats()[0].rejected == 1

    def test_queue_capacity_validated(self):
        with pytest.raises(ValueError):
            ShardAdmission([0], 0, shed=True, start=0)


class TestVirtualClockParity:
    @pytest.mark.parametrize("scenario_name,seed", sorted(GOLDEN_DIGESTS))
    def test_serve_matches_golden_digests(self, scenario_name, seed):
        result = ShardRuntime(serve_config(scenario_name, seed)).run()
        assert result_digest(result) == GOLDEN_DIGESTS[(scenario_name, seed)]

    def test_replay_adapter_preserves_parity(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        tracer = Tracer([JsonlSink(log)])
        ShardRuntime(serve_config("A", 0), tracer=tracer).run()
        tracer.close()
        result = ShardRuntime(
            serve_config("A", 0, adapter="replay", replay_log=str(log))
        ).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    def test_tracing_does_not_change_serve_results(self, tmp_path):
        tracer = Tracer([JsonlSink(tmp_path / "t.jsonl")])
        traced = ShardRuntime(serve_config("B", 1), tracer=tracer).run()
        tracer.close()
        assert result_digest(traced) == GOLDEN_DIGESTS[("B", 1)]

    def test_label_delay_matches_simulator(self):
        from repro.sim.scenario import build_scenario
        from repro.sim.simulator import Simulator

        scenario = build_scenario(SCENARIO_CONFIGS["A"])
        spec = RunSpec(seed=0, label="Ours-Ours", label_delay=3)
        sim = Simulator.from_spec(scenario, spec).run()
        served = ShardRuntime(serve_config("A", 0, label_delay=3)).run()
        assert result_digest(served) == result_digest(sim)
        # and delayed feedback genuinely changes the trajectory
        assert result_digest(served) != GOLDEN_DIGESTS[("A", 0)]


class TestShardedParity:
    """Cross-process parity: N worker processes, same bits as the simulator.

    Workers rebuild bit-identical kernels from the shared config (name-keyed
    RNG streams), step only their own edges, and the parent folds outcomes
    in global edge order — so the worker count must never show up in the
    digest.
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("scenario_name,seed", sorted(GOLDEN_DIGESTS))
    def test_sharded_serve_matches_golden_digests(
        self, scenario_name, seed, workers
    ):
        config = serve_config(scenario_name, seed, num_workers=workers)
        result = ShardRuntime(config, heartbeat_interval=0.05).run()
        assert result_digest(result) == GOLDEN_DIGESTS[(scenario_name, seed)]

    def test_replay_adapter_preserves_sharded_parity(self, tmp_path):
        log = tmp_path / "serve.jsonl"
        tracer = Tracer([JsonlSink(log)])
        ShardRuntime(serve_config("A", 0), tracer=tracer).run()
        tracer.close()
        config = serve_config(
            "A", 0, adapter="replay", replay_log=str(log), num_workers=2
        )
        result = ShardRuntime(config, heartbeat_interval=0.05).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    def test_in_process_workers_trace_into_the_parent(self):
        # num_workers=0 steps the edges on the parent's own loop, so their
        # events land in the parent's tracer; worker processes keep theirs
        # (merge them from the shard_trace_base logs instead).
        inline, sharded = Tracer(), Tracer()
        ShardRuntime(serve_config("A", 0), tracer=inline).run()
        ShardRuntime(
            serve_config("A", 0, num_workers=1), tracer=sharded
        ).run()
        assert inline.event_counts()["arrival"] == 40 * 3
        assert "arrival" not in sharded.event_counts()
        assert (
            inline.event_counts()["trade"] == sharded.event_counts()["trade"]
        )

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize(
        "selection,faulted",
        [
            ("Ours", True),
            ("UCB", False),
            ("UCB", True),
            ("EXP3", False),
            ("EXP3", True),
        ],
    )
    def test_shards_the_columnar_step_declines_match_the_simulator(
        self, selection, faulted, workers, monkeypatch
    ):
        # A fault plan runs on the columnar engine and a policy other than
        # plain Algorithm 1 on the per-edge body; each must stay
        # bit-identical to the simulator at any worker count.
        from repro.sim.kernel import EdgeSlotKernel
        from repro.sim.scenario import build_scenario
        from repro.sim.simulator import Simulator

        steps = []
        step = EdgeSlotKernel.step

        def counted(kernel, *args, **kwargs):
            steps.append(kernel.edge)
            return step(kernel, *args, **kwargs)

        monkeypatch.setattr(EdgeSlotKernel, "step", counted)

        plan = FIVE_FAULTS if faulted else FaultPlan()
        spec = RunSpec(selection=selection, seed=0, label="Ours-Ours", faults=plan)
        expected = Simulator.from_spec(build_scenario(SCENARIO_CONFIGS["A"]), spec)
        config = serve_config("A", 0, selection=selection, num_workers=workers)
        served = ShardRuntime(config, faults=plan, heartbeat_interval=0.05).run()
        if workers == 0:
            # The in-process worker's steps are this process's.
            assert (steps == []) == (selection == "Ours")
        assert result_digest(served) == result_digest(expected.run(vectorized=False))

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
    def test_pipelined_spans_match_the_simulator(self, faulted, workers, monkeypatch):
        # Under the wall clock the parent releases up to 8 slots ahead and a
        # worker steps each run of queued slots as one span of the engine.
        from repro.sim.kernel import ShardSlotKernel
        from repro.sim.scenario import build_scenario
        from repro.sim.simulator import Simulator

        spans = []
        step = ShardSlotKernel.step

        def recorded(shard, a, counts, shed):
            spans.append(range(a, a + counts.shape[1]))
            return step(shard, a, counts, shed)

        monkeypatch.setattr(ShardSlotKernel, "step", recorded)
        plan = FIVE_FAULTS if faulted else FaultPlan()
        config = serve_config(
            "A", 0, num_workers=workers, virtual_clock=False, slot_duration=0.0,
            pipeline_depth=8, backpressure="block",
        )
        served = ShardRuntime(config, faults=plan, heartbeat_interval=0.05).run()
        if workers == 0:
            # The in-process worker's spans are this process's.
            assert max(len(span) for span in spans) > 1
            assert [t for span in spans for t in span] == list(range(served.horizon))
        spec = RunSpec(seed=0, label="Ours-Ours", faults=plan)
        expected = Simulator.from_spec(build_scenario(SCENARIO_CONFIGS["A"]), spec)
        assert result_digest(served) == result_digest(expected.run())

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_noop_reconfig_plan_matches_golden_digests(self, workers):
        # A plan whose only op re-asserts the current worker count moves no
        # edges and rescales nothing: the reconfigured run must stay
        # bit-identical to the pinned goldens at every worker count.
        from repro.serve import Rebalance, ReconfigPlan

        config = serve_config("A", 0, num_workers=workers)
        plan = ReconfigPlan((Rebalance(at=8, num_workers=workers),))
        result = ShardRuntime(
            config, reconfig=plan, heartbeat_interval=0.05
        ).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]


class TestSnapshotRestore:
    def test_killed_run_resumes_to_identical_digest(self, tmp_path):
        snap = tmp_path / "state.pkl"
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(snap)
        )
        runtime = ShardRuntime(config)
        partial = runtime.run(max_slots=19)  # dies mid-horizon (slot 18)
        assert partial is None
        assert runtime.completed_slot == 18
        assert snap.exists()

        resumed = ShardRuntime.from_snapshot(snap)
        assert resumed.completed_slot + 1 == 16  # last boundary before kill
        result = resumed.run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]

    def test_dataset_adapter_snapshot_resumes_as_poisson(self, tmp_path):
        # The dataset adapter drew exactly the poisson adapter's arrivals,
        # so a snapshot that names it resumes on the poisson adapter, which
        # reads only the ``arrivals`` of the old adapter state.
        snap = tmp_path / "state.pkl"
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(snap)
        )
        ShardRuntime(config).run(max_slots=8)
        # Only version-2 files can name it: the adapter went first.
        payload = rewrite_as_version_2(snap)
        payload["config"]["adapter"] = "dataset"
        payload["adapters"] = [
            {"arrivals": adapter["arrivals"], "data_rng": kernel["data_rng"]}
            for adapter, kernel in zip(payload["adapters"], payload["edges"])
        ]
        snap.write_bytes(pickle.dumps(payload))
        resumed = ShardRuntime.from_snapshot(snap)
        assert resumed.config.adapter == "poisson"
        assert result_digest(resumed.run()) == GOLDEN_DIGESTS[("A", 0)]

    def test_multiple_kill_resume_cycles(self, tmp_path):
        snap = tmp_path / "state.pkl"
        config = serve_config(
            "A", 1, snapshot_every=8, snapshot_path=str(snap)
        )
        ShardRuntime(config).run(max_slots=8)
        ShardRuntime.from_snapshot(snap).run(max_slots=16)
        result = ShardRuntime.from_snapshot(snap).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 1)]

    def test_partial_run_refuses_results(self, tmp_path):
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(tmp_path / "s.pkl")
        )
        runtime = ShardRuntime(config)
        runtime.run(max_slots=8)
        with pytest.raises(RuntimeError, match="resume"):
            runtime.result()

    def test_label_mismatch_rejected(self, tmp_path):
        snap = tmp_path / "state.pkl"
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(snap)
        )
        ShardRuntime(config).run(max_slots=8)
        state = load_snapshot(snap)
        state.label = "someone-else"
        save_snapshot(snap, state)
        with pytest.raises(ValueError, match="someone-else"):
            ShardRuntime.from_snapshot(snap)

    def test_snapshot_version_checked(self, tmp_path):
        snap = tmp_path / "state.pkl"
        snap.write_bytes(pickle.dumps({"version": 999, "label": "x"}))
        with pytest.raises(ValueError, match="version"):
            load_snapshot(snap)

    def test_version_1_snapshot_resumes_in_process(self, tmp_path):
        # Version 1 wrote num_workers=1 for an in-process run; it loads as
        # 0 and resumes in-process to the same digest.
        snap = tmp_path / "state.pkl"
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(snap)
        )
        ShardRuntime(config).run(max_slots=8)
        raw = rewrite_as_version_2(snap)
        raw["version"] = 1
        raw["config"]["num_workers"] = 1
        snap.write_bytes(pickle.dumps(raw))
        state = load_snapshot(snap)
        assert state.config["num_workers"] == 0
        resumed = ShardRuntime.from_snapshot(snap)
        assert resumed.config.num_workers == 0
        assert result_digest(resumed.run()) == GOLDEN_DIGESTS[("A", 0)]

    def test_version_2_snapshot_resumes_and_counts_from_its_slot(self, tmp_path):
        # Version 2 carried no counters: the resumed run reaches the same
        # digest and counts the slots and events from its resume slot on.
        snap = tmp_path / "state.pkl"
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(snap)
        )
        ShardRuntime(config).run(max_slots=8)
        rewrite_as_version_2(snap)
        state = load_snapshot(snap)
        assert SNAPSHOT_VERSION == 4 and state.counters == {}
        assert {entry.as_of for entry in state.edges.values()} == {8}
        tracer = Tracer()
        result = ShardRuntime.from_state(state, tracer=tracer).run()
        assert result_digest(result) == GOLDEN_DIGESTS[("A", 0)]
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/slots_completed"] == 32
        assert counters["serve/events_in"] == int(result.arrivals[8:].sum())

    def test_version_3_snapshot_resumes_to_the_golden_digest(self, tmp_path):
        # Version 3 pickled policy, Generator and ArrivalProcess objects;
        # they load as their plain-data states.
        from repro.data.streams import ArrivalProcess

        snap = tmp_path / "state.pkl"
        config = serve_config("A", 0, snapshot_every=8, snapshot_path=str(snap))
        ShardRuntime(config).run(max_slots=8)
        payload = rewrite_as_version_3(snap)
        kernel = payload["edges"][0].kernel
        assert isinstance(kernel["policy"], model_selection.OnlineModelSelection)
        assert isinstance(kernel["data_rng"], np.random.Generator)
        assert isinstance(payload["edges"][0].adapter["arrivals"], ArrivalProcess)
        state = load_snapshot(snap)
        assert state.edges[0].adapter.keys() == {"rng"}
        rng_state = kernel["data_rng"].bit_generator.state
        assert state.edges[0].kernel["data_rng"] == rng_state
        assert result_digest(ShardRuntime.from_state(state).run()) == (
            GOLDEN_DIGESTS[("A", 0)]
        )

    def test_version_3_ingress_snapshot_migrates_parent_adapters(self, tmp_path):
        # Under ingress a poisson adapter sits under ``base``; a removed
        # edge's adapter state sits in ``parent_adapters`` too.
        from repro.ingress import IngressConfig
        from repro.serve import ReconfigPlan, RemoveEdge

        snap = tmp_path / "state.pkl"
        plan = ReconfigPlan((RemoveEdge(at=4, edge=1),))
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(snap),
            ingress=IngressConfig(slot_capacity=4).to_dict(),
        )
        whole = ShardRuntime(config, reconfig=plan).run()
        ShardRuntime(config, reconfig=plan).run(max_slots=8)
        payload = rewrite_as_version_3(snap)
        assert "arrivals" in payload["parent_adapters"][1]["base"]
        state = load_snapshot(snap)
        assert state.parent_adapters[1]["base"].keys() == {"rng"}
        resumed = ShardRuntime.from_state(state).run()
        assert result_digest(resumed) == result_digest(whole)

    def test_snapshot_event_and_counter_emitted(self, tmp_path):
        tracer = Tracer()
        config = serve_config(
            "A", 0, snapshot_every=8, snapshot_path=str(tmp_path / "s.pkl")
        )
        ShardRuntime(config, tracer=tracer).run()
        counts = tracer.event_counts()
        # horizon 40, every 8 slots, no snapshot at the final boundary
        assert counts["snapshot"] == 4
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/snapshots"] == 4


class TestBackpressureLoad:
    def test_load_smoke_10k_events_8_edges_all_accounted(
        self, tmp_path, monkeypatch
    ):
        import repro.serve.shard as shard_module

        # The inline worker builds its queues in this process: record them.
        admissions = []

        class RecordedAdmission(ShardAdmission):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                admissions.append(self)

        monkeypatch.setattr(shard_module, "ShardAdmission", RecordedAdmission)
        log = tmp_path / "load.jsonl"
        scenario = ScenarioConfig(
            dataset="synthetic",
            num_edges=8,
            horizon=100,
            num_models=4,
            n_test=400,
            seed=3,
        )
        config = ServeConfig(
            scenario=scenario,
            seed=3,
            virtual_clock=False,
            slot_duration=0.0,
            backpressure="shed",
            queue_capacity=64,
            pipeline_depth=8,
        )
        tracer = Tracer([JsonlSink(log)])
        runtime = ShardRuntime(config, tracer=tracer)
        result = runtime.run()
        tracer.close()

        counters = tracer.metrics_snapshot()["counters"]
        events_in = counters["serve/events_in"]
        assert events_in >= 10_000
        accounted = (
            counters.get("serve/events_served", 0)
            + counters.get("serve/events_shed", 0)
            + counters.get("serve/events_dropped_offline", 0)
        )
        assert events_in == accounted, "events leaked from the accounting"
        assert counters["serve/slots_completed"] == scenario.horizon
        assert counters["serve/events_served"] == int(result.arrivals.sum())

        # Queue depth stays bounded: above capacity only via the documented
        # single-oversized-burst admission on an empty queue.
        max_burst = max(
            e.count for e in _read_arrivals(log)
        )
        [admission] = admissions
        queues = admission.stats()
        assert sorted(queues) == list(range(scenario.num_edges))
        for stats in queues.values():
            assert stats.peak_events <= max(config.queue_capacity, max_burst)
            assert stats.items == 0
        # /healthz reports the drained queues as the worker left them.
        assert runtime.health()["queues"] == [
            {
                "edge": e,
                "depth_events": 0,
                "depth_items": 0,
                "peak_events": stats.peak_events,
                "rejected": stats.rejected,
            }
            for e, stats in sorted(queues.items())
        ]

        # The trace's own accounting agrees with the live counters.
        summary = summarize_trace(log)
        traced_in = sum(s.arrivals for s in summary.edges.values())
        traced_shed = sum(s.shed for s in summary.edges.values())
        assert traced_in == events_in
        assert traced_shed == counters.get("serve/events_shed", 0)

    def test_blocking_backpressure_sheds_nothing(self):
        scenario = ScenarioConfig(
            dataset="synthetic", num_edges=4, horizon=40, seed=2
        )
        config = ServeConfig(
            scenario=scenario,
            seed=2,
            virtual_clock=False,
            queue_capacity=8,
            pipeline_depth=4,
        )
        tracer = Tracer()
        runtime = ShardRuntime(config, tracer=tracer)
        result = runtime.run()
        counters = tracer.metrics_snapshot()["counters"]
        assert counters["serve/events_in"] == counters["serve/events_served"]
        assert counters.get("serve/events_shed", 0) == 0
        # A burst that does not fit is held back, not queued past the
        # bound: peaks stay within max(capacity, largest burst) — an
        # oversized burst enters only an empty queue — and every queue
        # drains by the last slot.
        max_burst = int(result.arrivals.max())
        queues = runtime.health()["queues"]
        assert [q["edge"] for q in queues] == list(range(scenario.num_edges))
        for q in queues:
            assert q["peak_events"] <= max(config.queue_capacity, max_burst)
            assert q["depth_events"] == q["depth_items"] == 0
            assert q["rejected"] == 0


def _read_arrivals(path):
    from repro.obs import read_events

    return [e for e in read_events(path) if e.type == "arrival"]


class TestSlotLoop:
    @staticmethod
    def _worker_task_names(monkeypatch, num_edges):
        names = []
        create_task = asyncio.create_task

        def recording(coro, **kwargs):
            names.append(kwargs.get("name"))
            return create_task(coro, **kwargs)

        monkeypatch.setattr(asyncio, "create_task", recording)
        scenario = ScenarioConfig(
            dataset="synthetic", num_edges=num_edges, horizon=8, seed=1
        )
        ShardRuntime(ServeConfig(scenario=scenario, seed=1)).run()
        return sorted(n for n in names if n and n.startswith("shard0-"))

    def test_worker_task_count_does_not_grow_with_edges(self, monkeypatch):
        # One slot loop steps every edge of the shard: the worker's tasks
        # are the same four at any edge count.
        assert (
            self._worker_task_names(monkeypatch, 2)
            == self._worker_task_names(monkeypatch, 16)
            == ["shard0-control", "shard0-heartbeat", "shard0-slots"]
        )

    def test_block_openings_share_one_solve_per_slot(self, monkeypatch):
        # The slot loop opens every block that starts at a slot with one
        # batched solve, so a scalar solve is left only at the slots where
        # exactly one edge of the shard opens a block.
        scalar_solves, batch_rows = [], []
        solve = model_selection.tsallis_inf_probabilities
        solve_batch = model_selection.tsallis_inf_probabilities_batch

        def counted_solve(losses, eta):
            scalar_solves.append(eta)
            return solve(losses, eta)

        def counted_batch(losses, etas):
            batch_rows.extend(etas)
            return solve_batch(losses, etas)

        monkeypatch.setattr(model_selection, "tsallis_inf_probabilities", counted_solve)
        monkeypatch.setattr(
            model_selection, "tsallis_inf_probabilities_batch", counted_batch
        )
        scenario = ScenarioConfig(
            dataset="synthetic", num_edges=6, horizon=64, seed=2
        )
        config = ServeConfig(scenario=scenario, seed=2)
        _, _, kernels, _ = build_serve_kernels(config)
        openings = Counter(
            start
            for kernel in kernels
            for start in np.cumsum([0, *kernel.policy.schedule.lengths[:-1]]).tolist()
        )
        ShardRuntime(config).run()
        singles = sum(1 for edges in openings.values() if edges == 1)
        assert len(scalar_solves) <= singles < len(openings)
        assert len(scalar_solves) + len(batch_rows) == sum(openings.values())


    def test_slot_frames_carry_one_columnar_record_per_shard(self, monkeypatch):
        # A SLOT frame carries its shard's one-slot record, one numpy
        # column per outcome field, never one outcome object per edge.
        from repro.sim.kernel import EdgeSlotOutcome, SlotOutcomes

        seen = []
        dispatch = ShardRuntime._dispatch

        def recording(runtime, handle, frame):
            if frame["type"] == "slot":
                seen.append((handle.edges, frame))
            return dispatch(runtime, handle, frame)

        monkeypatch.setattr(ShardRuntime, "_dispatch", recording)
        scenario = ScenarioConfig(
            dataset="synthetic", num_edges=5, horizon=6, seed=3
        )
        ShardRuntime(ServeConfig(scenario=scenario, seed=3, num_workers=2)).run()
        assert sorted(len(edges) for edges, _ in seen) == [2] * 6 + [3] * 6
        for edges, frame in seen:
            record = frame["record"]
            assert isinstance(record, SlotOutcomes)
            assert record.edge.tolist() == list(edges)
            assert record.num_slots == 1 and record.served.shape == (len(edges), 1)
            for value in frame.values():
                assert not isinstance(value, EdgeSlotOutcome)
                assert not (
                    isinstance(value, list)
                    and any(isinstance(v, EdgeSlotOutcome) for v in value)
                )


class TestWorkerFailures:
    def test_adapter_exception_propagates(self, monkeypatch):
        from repro.serve.adapters import PoissonAdapter

        def broken(self, start, stop):
            raise RuntimeError("stream died")

        monkeypatch.setattr(PoissonAdapter, "column", broken)
        runtime = ShardRuntime(serve_config("A", 0))
        with pytest.raises(RuntimeError, match="stream died"):
            runtime.run()

    @pytest.mark.parametrize("capture", ["snapshot", "reconfig"])
    def test_state_capture_with_buffered_draws_fails_the_run(
        self, capture, tmp_path, monkeypatch
    ):
        # A worker whose STATE answer fails must end the run with an ERROR
        # the parent raises, not leave the parent waiting on a worker that
        # still sends heartbeats.  (The shard kernel once refused a capture
        # while it held buffered draws; any failing capture takes this path.)
        from repro.serve import Rebalance, ReconfigPlan
        from repro.sim.kernel import ShardSlotKernel

        def failing(shard):
            raise RuntimeError(f"edges {shard._edges.tolist()} cannot be captured")

        monkeypatch.setattr(ShardSlotKernel, "state_dicts", failing)
        if capture == "snapshot":
            config = serve_config(
                "A", 0, snapshot_every=8, snapshot_path=str(tmp_path / "s.pkl")
            )
            runtime = ShardRuntime(config, stall_timeout=10.0)
        else:
            runtime = ShardRuntime(
                serve_config("A", 0, num_workers=1),
                reconfig=ReconfigPlan((Rebalance(at=8, num_workers=1),)),
                heartbeat_interval=0.05,
                stall_timeout=10.0,
            )
        with pytest.raises(RuntimeError, match=r"edges \[0, 1, 2\] cannot be captured"):
            runtime.run()

    def test_max_slots_validated(self):
        runtime = ShardRuntime(serve_config("A", 0))
        with pytest.raises(ValueError, match="max_slots"):
            runtime.run(max_slots=0)


class TestStatusEndpoint:
    @staticmethod
    async def _get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, json.loads(body) if body else None

    def test_routes_and_errors(self):
        async def scenario():
            server = StatusServer({"/healthz": lambda: {"ok": True}})
            await server.start()
            try:
                ok = await self._get(server.port, "/healthz")
                missing = await self._get(server.port, "/nope")
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"POST /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return ok, missing, int(raw.split()[1]), server.requests_served
            finally:
                await server.stop()

        ok, missing, post_status, served = asyncio.run(scenario())
        assert ok == (200, {"ok": True})
        assert missing[0] == 404 and "/healthz" in missing[1]["routes"]
        assert post_status == 405
        assert served == 3

    def test_healthz_and_metrics_during_a_run(self):
        import threading

        scenario_cfg = ScenarioConfig(
            dataset="synthetic", num_edges=2, horizon=25, seed=4
        )
        config = ServeConfig(
            scenario=scenario_cfg,
            seed=4,
            virtual_clock=False,
            slot_duration=0.02,
            health_port=0,
        )
        runtime = ShardRuntime(config, tracer=Tracer())
        results = []
        runner = threading.Thread(target=lambda: results.append(runtime.run()))
        runner.start()
        # Event-driven wait: run() sets server_ready once the status server
        # is bound, so no timing-sensitive poll loop.
        assert runtime.server_ready.wait(timeout=30)
        port = runtime.status_thread.port

        async def scenario():
            health = await self._get(port, "/healthz")
            metrics = await self._get(port, "/metrics")
            return health, metrics

        health, metrics = asyncio.run(scenario())
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert health[0] == 200
        assert health[1]["status"] in ("serving", "done")
        assert health[1]["horizon"] == 25
        assert [s["edges"] for s in health[1]["shards"]] == [[0, 1]]
        # Queue rows appear once the worker's first heartbeat lands.
        assert {q["edge"] for q in health[1]["queues"]} <= {0, 1}
        assert metrics[0] == 200
        assert "counters" in metrics[1] and "events" in metrics[1]
        assert set(metrics[1]["timers"]["serve/stage/slot"]) == {
            "count", "mean_s", "max_s", "p50_s", "p95_s", "p99_s",
        }
        assert results[0] is not None and results[0].horizon == 25
        assert runtime.metrics()["timers"]["serve/stage/slot"]["count"] == 25
        final = runtime.health()
        assert final["status"] == "done"
        assert [q["edge"] for q in final["queues"]] == [0, 1]
        assert all(q["depth_items"] == 0 for q in final["queues"])


class TestServeCli:
    def test_serve_command_prints_summary_and_counters(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "serve.jsonl"
        code = main([
            "serve",
            "--edges", "2",
            "--horizon", "16",
            "--seed", "5",
            "--trace-output", str(log),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Served: Ours-Ours" in out
        assert "events_in" in out
        assert log.exists()

    def test_untraced_serve_command_steps_shards_in_columns(
        self, monkeypatch, capsys
    ):
        # Without --trace-output the command hands the runtime no tracer,
        # so the default in-process worker takes the columnar shard step;
        # the counters still print.
        from repro.cli import main
        from repro.sim.kernel import ShardSlotKernel

        bodies = []
        init = ShardSlotKernel.__init__

        def recording(shard, kernels):
            init(shard, kernels)
            bodies.append(shard.columnar)

        monkeypatch.setattr(ShardSlotKernel, "__init__", recording)
        assert main(["serve", "--edges", "2", "--horizon", "8"]) == 0
        assert bodies == [True]
        assert "events_in" in capsys.readouterr().out

    def test_serve_snapshot_resume_cycle(self, tmp_path, capsys):
        from repro.cli import main

        snap = tmp_path / "state.pkl"
        code = main([
            "serve",
            "--edges", "2",
            "--horizon", "16",
            "--seed", "5",
            "--snapshot-every", "4",
            "--snapshot-path", str(snap),
            "--max-slots", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0 and "resume with --resume" in out
        code = main(["serve", "--resume", str(snap)])
        out = capsys.readouterr().out
        assert code == 0 and "resuming Ours-Ours" in out
        assert "Served: Ours-Ours" in out

    def test_sharded_resume_writes_worker_trace_logs(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import read_events

        snap = tmp_path / "state.pkl"
        main([
            "serve",
            "--edges", "2",
            "--horizon", "16",
            "--workers", "1",
            "--snapshot-every", "4",
            "--snapshot-path", str(snap),
            "--max-slots", "6",
        ])
        log = tmp_path / "resumed.jsonl"
        code = main(["serve", "--resume", str(snap), "--trace-output", str(log)])
        assert code == 0 and "Served: Ours-Ours" in capsys.readouterr().out
        # The resumed run's edge events live in the worker's own log.
        arrivals = [
            e
            for e in read_events(tmp_path / "resumed.jsonl.shard0")
            if e.type == "arrival"
        ]
        assert len(arrivals) == (16 - 4) * 2

    def test_serve_with_a_chaos_plan_runs_a_worker_process(
        self, tmp_path, capsys
    ):
        # Chaos acts on worker processes; the CLI's in-process default
        # moves to one worker instead of rejecting the plan.
        from repro.cli import main
        from repro.serve import ChaosPlan, TransportDrop

        plan = tmp_path / "chaos.json"
        plan.write_text(ChaosPlan((TransportDrop(worker=0, at=3),)).to_json())
        log = tmp_path / "serve.jsonl"
        code = main([
            "serve",
            "--edges", "2",
            "--horizon", "12",
            "--chaos", str(plan),
            "--trace-output", str(log),
        ])
        assert code == 0
        assert "Served: Ours-Ours" in capsys.readouterr().out
        assert (tmp_path / "serve.jsonl.shard0").exists()

    def test_serve_config_file_with_override(self, tmp_path, capsys):
        from repro.cli import main

        config = ServeConfig(
            scenario=ScenarioConfig(
                dataset="synthetic", num_edges=2, horizon=12, seed=1
            ),
            seed=1,
        )
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        code = main(["serve", "--config", str(path), "--label", "renamed"])
        out = capsys.readouterr().out
        assert code == 0 and "Served: renamed" in out

    def test_trace_replay_renders_tables(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "serve.jsonl"
        main([
            "serve",
            "--edges", "2",
            "--horizon", "12",
            "--trace-output", str(log),
        ])
        capsys.readouterr()
        code = main(["trace", "--replay", str(log)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Trace replay" in out
        assert "Per-edge aggregates" in out
        assert "arrival" in out
