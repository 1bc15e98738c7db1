"""Correctness tests for the content-addressed result cache.

Two invariants: (1) the cache key moves whenever *anything* the run depends
on moves — any scenario/config field, either policy name, the seed, the
label, or the result-schema version — and (2) a damaged entry is never
served: corruption of any kind is a miss, and the caller recomputes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.experiments.cache import ResultCache, cell_key, scenario_fingerprint
from repro.experiments.engine import SweepEngine
from repro.experiments.runner import run_combo, run_many
from repro.sim.config import ScenarioConfig
from repro.sim.io import canonical_result_json
from repro.sim.scenario import build_scenario

BASE_CONFIG = ScenarioConfig(
    dataset="synthetic",
    num_edges=3,
    horizon=24,
    num_models=4,
    n_test=300,
    seed=0,
)

#: One override per swept config field; each must move the cell key.
FIELD_OVERRIDES = {
    "num_edges": {"num_edges": 4},
    "horizon": {"horizon": 32},
    "num_models": {"num_models": 5},
    "carbon_cap_kg": {"carbon_cap_kg": 123.0},
    "rho_kg_per_kwh": {"rho_kg_per_kwh": 0.25},
    "requests_per_arrival": {"requests_per_arrival": 1e6},
    "workload_base_mean": {"workload_base_mean": 55.0},
    "trade_bound_factor": {"trade_bound_factor": 2.0},
    "switching_weight": {"switching_weight": 3.0},
    "seed": {"seed": 99},
    "n_test": {"n_test": 400},
    "image_size": {"image_size": 10},
}


def base_key(scenario) -> str:
    return cell_key(scenario, "Ours", "Ours", 0, "Ours")


class TestKeySensitivity:
    def test_key_is_deterministic(self):
        scenario = build_scenario(BASE_CONFIG)
        again = build_scenario(BASE_CONFIG)
        assert base_key(scenario) == base_key(again)

    @pytest.mark.parametrize("field", sorted(FIELD_OVERRIDES))
    def test_every_config_field_moves_the_key(self, field):
        scenario = build_scenario(BASE_CONFIG)
        changed = build_scenario(BASE_CONFIG.with_overrides(**FIELD_OVERRIDES[field]))
        assert base_key(changed) != base_key(scenario), field

    def test_all_config_fields_are_covered(self):
        # If ScenarioConfig grows a field, this test forces an entry in
        # FIELD_OVERRIDES (or a conscious exemption here) so the sweep above
        # keeps proving that every field reaches the key.
        exempt = {"dataset", "weights", "zoo_seed", "n_train"}  # tested below / zoo-only
        fields = {f.name for f in dataclasses.fields(ScenarioConfig)}
        assert fields - exempt == set(FIELD_OVERRIDES)

    def test_weights_move_the_key(self):
        from repro.sim.config import CostWeights

        scenario = build_scenario(BASE_CONFIG)
        changed = build_scenario(
            BASE_CONFIG.with_overrides(weights=CostWeights(switching=2.0))
        )
        assert base_key(changed) != base_key(scenario)

    def test_selection_name_moves_the_key(self):
        scenario = build_scenario(BASE_CONFIG)
        assert cell_key(scenario, "UCB", "Ours", 0) != cell_key(
            scenario, "Ours", "Ours", 0
        )

    def test_trading_name_moves_the_key(self):
        scenario = build_scenario(BASE_CONFIG)
        assert cell_key(scenario, "Ours", "LY", 0) != cell_key(
            scenario, "Ours", "Ours", 0
        )

    def test_seed_moves_the_key(self):
        scenario = build_scenario(BASE_CONFIG)
        assert cell_key(scenario, "Ours", "Ours", 1) != cell_key(
            scenario, "Ours", "Ours", 0
        )

    def test_label_moves_the_key(self):
        # The label lands in the serialized result, so it must key too —
        # otherwise a cache hit could come back under the wrong name.
        scenario = build_scenario(BASE_CONFIG)
        assert cell_key(scenario, "Ours", "Ours", 0, "A") != cell_key(
            scenario, "Ours", "Ours", 0, "B"
        )

    def test_schema_version_moves_the_key(self, monkeypatch):
        from repro.experiments import cache as cache_module

        scenario = build_scenario(BASE_CONFIG)
        before = base_key(scenario)
        monkeypatch.setattr(
            cache_module, "FORMAT_VERSION", cache_module.FORMAT_VERSION + 1
        )
        assert base_key(scenario) != before

    def test_fingerprint_pins_materialized_arrays(self):
        # Same config -> same fingerprint, field for field.
        fp1 = scenario_fingerprint(build_scenario(BASE_CONFIG))
        fp2 = scenario_fingerprint(build_scenario(BASE_CONFIG))
        assert fp1 == fp2


class TestCorruptionHandling:
    def entry(self, tmp_path):
        scenario = build_scenario(BASE_CONFIG)
        cache = ResultCache(tmp_path)
        key = base_key(scenario)
        result = run_combo(scenario, "Ours", "Ours", 0, label="Ours")
        cache.store(key, result)
        return scenario, cache, key, result

    def test_round_trip_is_bit_identical(self, tmp_path):
        _, cache, key, result = self.entry(tmp_path)
        loaded = cache.load(key)
        assert loaded is not None
        assert canonical_result_json(loaded) == canonical_result_json(result)
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("0" * 64) is None
        assert cache.misses == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        _, cache, key, _ = self.entry(tmp_path)
        path = cache.path_for(key)
        path.write_text(path.read_text()[: 100], encoding="utf-8")
        assert cache.load(key) is None

    def test_bit_flip_in_payload_is_a_miss(self, tmp_path):
        _, cache, key, _ = self.entry(tmp_path)
        path = cache.path_for(key)
        raw = json.loads(path.read_text())
        raw["payload"]["horizon"] = raw["payload"]["horizon"] + 1
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert cache.load(key) is None

    def test_entry_under_wrong_key_is_a_miss(self, tmp_path):
        # A rename/copy attack: a valid entry served under a different key
        # must be rejected by the embedded-key check.
        _, cache, key, _ = self.entry(tmp_path)
        other = "f" * 64
        cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(other).write_text(
            cache.path_for(key).read_text(), encoding="utf-8"
        )
        assert cache.load(other) is None

    def test_non_json_garbage_is_a_miss(self, tmp_path):
        _, cache, key, _ = self.entry(tmp_path)
        cache.path_for(key).write_text("not json {", encoding="utf-8")
        assert cache.load(key) is None

    def test_corrupted_entry_is_recomputed_not_served(self, tmp_path):
        scenario, cache, key, result = self.entry(tmp_path)
        path = cache.path_for(key)
        path.write_text(path.read_text()[:-40], encoding="utf-8")

        engine = SweepEngine(cache=ResultCache(tmp_path))
        results = run_many(
            scenario, "Ours", "Ours", [0], label="Ours", engine=engine
        )
        assert engine.stats.executed == 1, "corrupted cell must recompute"
        assert engine.stats.cache_hits == 0
        assert canonical_result_json(results[0]) == canonical_result_json(result)
        # The recompute healed the entry: the next engine hits it.
        healed = SweepEngine(cache=ResultCache(tmp_path))
        run_many(scenario, "Ours", "Ours", [0], label="Ours", engine=healed)
        assert healed.stats.cache_hits == 1

    def test_len_counts_entries(self, tmp_path):
        _, cache, _, _ = self.entry(tmp_path)
        assert len(cache) == 1


class TestKeyExtensions:
    """``kind`` and ``faults`` enter the key only when non-default."""

    def test_default_kind_and_empty_faults_leave_key_unchanged(self):
        from repro.faults import FaultPlan

        scenario = build_scenario(BASE_CONFIG)
        plain = base_key(scenario)
        assert cell_key(scenario, "Ours", "Ours", 0, "Ours", kind="combo") == plain
        assert (
            cell_key(scenario, "Ours", "Ours", 0, "Ours", faults=FaultPlan()) == plain
        )

    def test_offline_kind_moves_the_key(self):
        scenario = build_scenario(BASE_CONFIG)
        assert cell_key(
            scenario, "Offline", "Offline", 0, "Offline", kind="offline"
        ) != cell_key(scenario, "Offline", "Offline", 0, "Offline")

    def test_nonempty_fault_plan_moves_the_key(self):
        from repro.faults import FaultPlan, MarketOutage

        scenario = build_scenario(BASE_CONFIG)
        plan = FaultPlan((MarketOutage(start=0, end=4),))
        assert cell_key(scenario, "Ours", "Ours", 0, "Ours", faults=plan) != base_key(
            scenario
        )


class TestPrune:
    def populated(self, tmp_path, entries=4):
        scenario = build_scenario(BASE_CONFIG)
        cache = ResultCache(tmp_path)
        for seed in range(entries):
            key = cell_key(scenario, "Ours", "Ours", seed, "Ours")
            cache.store(key, run_combo(scenario, "Ours", "Ours", seed, label="Ours"))
        return cache

    def test_requires_a_criterion(self, tmp_path):
        with pytest.raises(ValueError, match="prune needs"):
            ResultCache(tmp_path).prune()

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache = self.populated(tmp_path)
        report = cache.prune(max_size_bytes=0, dry_run=True)
        assert report.dry_run
        assert report.removed == 4
        assert len(cache) == 4

    def test_size_eviction_is_oldest_first(self, tmp_path):
        import os

        cache = self.populated(tmp_path)
        paths = sorted(
            cache.directory.glob("*/*.json"), key=lambda p: p.stat().st_mtime
        )
        # Spread mtimes so ordering is unambiguous, oldest first.
        for offset, path in enumerate(paths):
            os.utime(path, (1_000_000 + offset, 1_000_000 + offset))
        survivors_budget = sum(p.stat().st_size for p in paths[2:])
        report = cache.prune(max_size_bytes=survivors_budget)
        assert report.removed == 2
        assert sorted(report.removed_paths) == sorted(paths[:2])
        assert len(cache) == 2

    def test_age_eviction_removes_stale_entries(self, tmp_path):
        import os

        cache = self.populated(tmp_path)
        stale = next(iter(cache.directory.glob("*/*.json")))
        os.utime(stale, (1_000_000, 1_000_000))  # far in the past
        report = cache.prune(max_age_seconds=3600.0)
        assert report.removed == 1
        assert report.removed_paths == [stale]
        assert len(cache) == 3

    def test_empty_shard_directories_are_cleaned_up(self, tmp_path):
        cache = self.populated(tmp_path)
        cache.prune(max_size_bytes=0)
        assert len(cache) == 0
        assert not any(p.is_dir() for p in cache.directory.iterdir())

    def test_total_size_matches_report(self, tmp_path):
        cache = self.populated(tmp_path)
        report = cache.prune(max_size_bytes=10**9)  # evicts nothing
        assert report.removed == 0
        assert report.kept_bytes == cache.total_size_bytes()
