"""Resilience tests for the sweep engine: crashes, hangs, and resume.

The env hooks ``REPRO_ENGINE_TEST_CRASH`` / ``REPRO_ENGINE_TEST_HANG``
make a pool worker die (``os._exit``) or stall on one specific cell,
exactly once — a marker file arms each hook, and the hooks only fire
inside pool workers, so retries and in-process fallbacks always succeed.
That lets these tests prove the engine's strongest recovery contract:
a sweep whose workers crash or hang still completes, and its results are
*bit-identical* to a clean serial sweep.

Checkpoint tests prove the resume contract the same way: after a
simulated kill, a fresh engine executes only the cells missing from the
journal — zero recomputation — and still reproduces the serial bytes.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.engine import SweepCell, SweepEngine
from repro.experiments.runner import run_many
from repro.sim.config import ScenarioConfig
from repro.sim.io import canonical_result_json
from repro.sim.scenario import build_scenario

SEEDS = [0, 1, 2, 3]


@pytest.fixture(scope="module")
def scenario():
    return build_scenario(
        ScenarioConfig(
            dataset="synthetic", num_edges=2, horizon=16, num_models=3,
            n_test=200, seed=3,
        )
    )


@pytest.fixture(scope="module")
def serial_bytes(scenario):
    results = run_many(
        scenario, "UCB", "LY", SEEDS, label="UCB-LY", engine=SweepEngine()
    )
    return [canonical_result_json(r) for r in results]


def canon(results):
    return [canonical_result_json(r) for r in results]


class TestCrashRecovery:
    def test_crashed_worker_retries_bit_identically(
        self, scenario, serial_bytes, tmp_path, monkeypatch
    ):
        marker = tmp_path / "crash.marker"
        monkeypatch.setenv("REPRO_ENGINE_TEST_CRASH", f"2:{marker}")
        engine = SweepEngine(workers=2)
        results = run_many(
            scenario, "UCB", "LY", SEEDS, label="UCB-LY", engine=engine
        )
        assert marker.exists(), "the crash hook must actually have fired"
        assert canon(results) == serial_bytes
        assert engine.stats.pool_failures >= 1
        assert engine.stats.retries >= 1
        assert engine.stats.fallback_cells == 0

    def test_repeated_failures_fall_back_in_process(
        self, scenario, serial_bytes, tmp_path, monkeypatch
    ):
        # Arm a fresh crash marker before every pool round: every pool the
        # engine builds dies, so after pool_failure_limit rounds the whole
        # remainder must complete in-process — still bit-identically.
        markers = iter(tmp_path / f"crash{i}.marker" for i in range(10))

        original = SweepEngine._pool_round

        def rearm_and_run(self, *args, **kwargs):
            monkeypatch.setenv("REPRO_ENGINE_TEST_CRASH", f"2:{next(markers)}")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SweepEngine, "_pool_round", rearm_and_run)
        engine = SweepEngine(workers=2, max_retries=1, pool_failure_limit=2)
        results = run_many(
            scenario, "UCB", "LY", SEEDS, label="UCB-LY", engine=engine
        )
        assert canon(results) == serial_bytes
        assert engine.stats.pool_failures >= 1
        assert engine.stats.fallback_cells >= 1


class TestHangRecovery:
    def test_stalled_pool_times_out_and_recovers(
        self, scenario, serial_bytes, tmp_path, monkeypatch
    ):
        marker = tmp_path / "hang.marker"
        monkeypatch.setenv("REPRO_ENGINE_TEST_HANG", f"1:{marker}")
        engine = SweepEngine(workers=2, cell_timeout=2.0)
        results = run_many(
            scenario, "UCB", "LY", SEEDS, label="UCB-LY", engine=engine
        )
        assert marker.exists(), "the hang hook must actually have fired"
        assert canon(results) == serial_bytes
        assert engine.stats.pool_failures >= 1


class TestCheckpointResume:
    def cells(self):
        return [SweepCell("UCB", "LY", seed, label="UCB-LY") for seed in SEEDS]

    def test_resumed_run_executes_only_missing_cells(
        self, scenario, serial_bytes, tmp_path
    ):
        journal = tmp_path / "sweep.jsonl"
        # First run completes only half the sweep ("killed" after 2 cells).
        first = SweepEngine(checkpoint=SweepCheckpoint(journal))
        first.run_cells(scenario, self.cells()[:2])
        assert first.stats.executed == 2

        resumed = SweepEngine(checkpoint=SweepCheckpoint(journal))
        results = resumed.run_cells(scenario, self.cells())
        assert canon(results) == serial_bytes
        assert resumed.stats.checkpoint_hits == 2
        assert resumed.stats.executed == 2, "journaled cells must not recompute"

        # A third run replays everything: zero cells executed.
        replay = SweepEngine(checkpoint=SweepCheckpoint(journal))
        results = replay.run_cells(scenario, self.cells())
        assert canon(results) == serial_bytes
        assert replay.stats.executed == 0
        assert replay.stats.checkpoint_hits == len(SEEDS)

    def test_truncated_journal_line_is_skipped_not_fatal(self, scenario, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = SweepEngine(checkpoint=SweepCheckpoint(journal))
        first.run_cells(scenario, self.cells()[:2])
        # Simulate a kill mid-append: chop the last line in half.
        raw = journal.read_text(encoding="utf-8")
        journal.write_text(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1],
                           encoding="utf-8")
        resumed = SweepCheckpoint(journal)
        assert resumed.corrupt_lines == 1
        assert len(resumed) == 1
        engine = SweepEngine(checkpoint=resumed)
        engine.run_cells(scenario, self.cells()[:2])
        assert engine.stats.executed == 1, "only the truncated cell re-executes"

    def test_checkpoint_and_cache_compose(self, scenario, serial_bytes, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        cache = ResultCache(tmp_path / "cache")
        warm = SweepEngine(cache=cache, checkpoint=SweepCheckpoint(journal))
        assert canon(warm.run_cells(scenario, self.cells())) == serial_bytes
        # Checkpoint wins over cache on resume; either way nothing executes.
        resumed = SweepEngine(
            cache=ResultCache(tmp_path / "cache"),
            checkpoint=SweepCheckpoint(journal),
        )
        assert canon(resumed.run_cells(scenario, self.cells())) == serial_bytes
        assert resumed.stats.executed == 0

    def test_cache_hits_are_journaled_for_later_resume(self, scenario, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepEngine(cache=cache).run_cells(scenario, self.cells())
        journal = tmp_path / "sweep.jsonl"
        bridged = SweepEngine(
            cache=ResultCache(tmp_path / "cache"),
            checkpoint=SweepCheckpoint(journal),
        )
        bridged.run_cells(scenario, self.cells())
        assert bridged.stats.cache_hits == len(SEEDS)
        # The journal alone can now resume the sweep with zero execution.
        alone = SweepEngine(checkpoint=SweepCheckpoint(journal))
        alone.run_cells(scenario, self.cells())
        assert alone.stats.executed == 0
