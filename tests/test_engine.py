"""Tests for the parallel seed-sweep engine.

The contract under test is the strongest one the simulator supports:
results come back in cell order and are *bit-identical* — byte-for-byte
equal canonical serializations — across worker counts and cache hits.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import engine as engine_module
from repro.experiments.cache import ResultCache
from repro.experiments.engine import SweepCell, SweepEngine, use_engine
from repro.experiments.runner import run_combo, run_many
from repro.policies import make_selection_policies, register_selection
from repro.sim.io import canonical_result_json

SWEEP_COMBOS = (("Ours", "Ours"), ("UCB", "LY"), ("Ran", "TH"), ("Greedy", "Ran"))
SWEEP_SEEDS = list(range(10))


def sweep_cells() -> list[SweepCell]:
    """The acceptance sweep: 4 combos x 10 seeds = 40 cells."""
    return [
        SweepCell(sel, trade, seed, label=f"{sel}-{trade}")
        for sel, trade in SWEEP_COMBOS
        for seed in SWEEP_SEEDS
    ]


def canon(results) -> list[str]:
    return [canonical_result_json(r) for r in results]


class TestSerialEngine:
    def test_matches_run_combo_per_seed(self, small_scenario):
        with use_engine(SweepEngine(workers=1)):
            results = run_many(small_scenario, "UCB", "LY", [0, 1, 2], label="UCB-LY")
        direct = [
            run_combo(small_scenario, "UCB", "LY", seed, label="UCB-LY")
            for seed in (0, 1, 2)
        ]
        assert canon(results) == canon(direct)

    def test_workers_one_never_builds_a_pool(self, small_scenario, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("workers=1 must not construct a process pool")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", forbidden)
        with use_engine(SweepEngine(workers=1)):
            results = run_many(small_scenario, "Ours", "Ours", [0, 1])
        assert len(results) == 2

    def test_empty_seeds_rejected(self, small_scenario):
        with use_engine(SweepEngine()), pytest.raises(ValueError, match="seed"):
            run_many(small_scenario, "Ours", "Ours", [])

    def test_unknown_policy_rejected_before_any_run(self, small_scenario):
        engine = SweepEngine()
        with use_engine(engine):
            with pytest.raises(ValueError, match="selection"):
                run_many(small_scenario, "Thompson", "Ours", [0])
            with pytest.raises(ValueError, match="trading"):
                run_many(small_scenario, "Ours", "Hedge", [0])
        assert engine.stats.cells == 0

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            SweepEngine(workers=0)

    def test_empty_cell_list_is_a_noop(self, small_scenario):
        assert SweepEngine().run_cells(small_scenario, []) == []


class TestParallelEngine:
    def test_workers2_bit_identical_to_serial(self, small_scenario):
        serial = run_many(small_scenario, "Ours", "Ours", [0, 1, 2, 3], label="Ours")
        with use_engine(SweepEngine(workers=2)):
            parallel = run_many(
                small_scenario, "Ours", "Ours", [0, 1, 2, 3], label="Ours"
            )
        assert canon(parallel) == canon(serial)

    def test_acceptance_sweep_parallel_and_cached(self, small_scenario, tmp_path):
        """4 combos x 10 seeds: workers=4 == serial; second run is all hits."""
        cells = sweep_cells()
        serial = SweepEngine(workers=1).run_cells(small_scenario, cells)
        serial_canon = canon(serial)
        assert len(serial_canon) == 40

        first = SweepEngine(workers=4, cache=ResultCache(tmp_path / "cache"))
        assert canon(first.run_cells(small_scenario, cells)) == serial_canon
        assert first.stats.executed == 40
        assert first.stats.cache_stores == 40

        second = SweepEngine(workers=4, cache=ResultCache(tmp_path / "cache"))
        assert canon(second.run_cells(small_scenario, cells)) == serial_canon
        assert second.stats.executed == 0, "second invocation must simulate nothing"
        assert second.stats.cache_hits == 40


class TestCacheIntegration:
    def test_partial_hits_execute_only_misses(self, small_scenario, tmp_path):
        # Also the resume path: a sweep that stopped after two cells picks
        # up on a cached rerun, executing only the cell it never finished.
        with use_engine(SweepEngine(cache=ResultCache(tmp_path))):
            run_many(small_scenario, "Ours", "Ours", [0, 1])
        follow = SweepEngine(cache=ResultCache(tmp_path))
        with use_engine(follow):
            results = run_many(small_scenario, "Ours", "Ours", [0, 1, 2])
        assert follow.stats.cache_hits == 2
        assert follow.stats.executed == 1
        assert canon(results) == canon(
            run_many(small_scenario, "Ours", "Ours", [0, 1, 2])
        )

    def test_stats_accumulate_across_calls(self, small_scenario, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        with use_engine(engine):
            run_many(small_scenario, "Ours", "Ours", [0])
            run_many(small_scenario, "Ours", "Ours", [0])
        assert engine.stats.cells == 2
        assert engine.stats.executed == 1
        assert engine.stats.cache_hits == 1


class TestDefaultEngineRouting:
    def test_run_many_routes_through_scoped_engine(self, small_scenario):
        engine = SweepEngine()
        with use_engine(engine) as scoped:
            assert scoped is engine
            run_many(small_scenario, "Ours", "Ours", [0, 1])
        run_many(small_scenario, "Ours", "Ours", [0])
        assert engine.stats.cells == 2

    def test_innermost_engine_wins(self, small_scenario):
        outer = SweepEngine()
        inner = SweepEngine()
        with use_engine(outer):
            with use_engine(inner):
                run_many(small_scenario, "Ours", "Ours", [0])
            run_many(small_scenario, "Ours", "Ours", [0, 1])
        assert inner.stats.cells == 1
        assert outer.stats.cells == 2

    def test_run_many_rejects_empty_seed_list(self, small_scenario):
        with pytest.raises(ValueError, match="seed"):
            run_many(small_scenario, "Ours", "Ours", [])


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the test's registration only when forked",
)
def test_dead_pool_worker_raises_broken_process_pool(small_scenario, clean_registry):
    """A pool worker that dies surfaces as a typed error, not as results."""

    @register_selection("DiesInWorker")
    def build(scenario, rng_factory):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return make_selection_policies("Greedy", scenario, rng_factory)

    with use_engine(SweepEngine(workers=2)):
        with pytest.raises(BrokenProcessPool):
            run_many(small_scenario, "DiesInWorker", "Ours", [0, 1, 2])
