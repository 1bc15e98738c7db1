"""Golden-digest regression tests for the simulator's exact outputs.

Each digest is the SHA-256 of the canonical JSON serialization of one
``Simulator.run`` output, pinned at the commit that introduced this file.
A digest moving means the simulation's *numbers* changed — a different
RNG stream, a reordered reduction, a new term in a cost — which is either
a bug or a deliberate behavior change that must update the table here.

The same digests then lock the engine's parity contract: serial,
``workers=2``, and cache-hit execution paths must all reproduce these
exact bytes.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.engine import SweepEngine
from repro.experiments.runner import run_combo, run_many
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from repro.sim.scenario import build_scenario

SCENARIO_CONFIGS = {
    "A": ScenarioConfig(
        dataset="synthetic", num_edges=3, horizon=40, num_models=4, n_test=500, seed=0
    ),
    "B": ScenarioConfig(
        dataset="synthetic",
        num_edges=2,
        horizon=24,
        num_models=3,
        n_test=300,
        seed=7,
        carbon_cap_kg=200.0,
    ),
}

#: (scenario, run seed) -> SHA-256 of the canonical serialized result of an
#: Ours/Ours run.  Recompute with ``repro.sim.io.result_digest`` if the
#: simulation's numbers change on purpose.
GOLDEN_DIGESTS = {
    ("A", 0): "35153619477441064db2de266b93a97c45007d4dd713ac524706ec50cac7f62b",
    ("A", 1): "1c81342251a69c597fa32a4e006662d5a4d3b44fcbfff1bcddab050f6a8d9e58",
    ("B", 0): "2a53366a4b1059e0d6547a48e8fccb8ef2f566a4654455d6ed184f271d7341b0",
    ("B", 1): "c6913cfc75e441e9ace2a623e956a9f8b02d0472410eab653495bba4a2210ce3",
}


def golden_run(scenario_name: str, seed: int):
    scenario = build_scenario(SCENARIO_CONFIGS[scenario_name])
    return run_combo(scenario, "Ours", "Ours", seed, label="Ours-Ours")


class TestGoldenDigests:
    @pytest.mark.parametrize("scenario_name,seed", sorted(GOLDEN_DIGESTS))
    def test_simulator_output_digest_is_stable(self, scenario_name, seed):
        digest = result_digest(golden_run(scenario_name, seed))
        assert digest == GOLDEN_DIGESTS[(scenario_name, seed)]

    def test_digest_distinguishes_runs(self):
        # Sanity on the oracle itself: different seeds/scenarios, different bytes.
        assert len(set(GOLDEN_DIGESTS.values())) == len(GOLDEN_DIGESTS)


class TestExecutionPathParity:
    """Serial, workers=2, and cache-hit paths all reproduce the golden bytes."""

    SEEDS = [0, 1]

    def expected(self, scenario_name):
        return [GOLDEN_DIGESTS[(scenario_name, seed)] for seed in self.SEEDS]

    def digests(self, engine, scenario_name):
        scenario = build_scenario(SCENARIO_CONFIGS[scenario_name])
        results = run_many(
            scenario, "Ours", "Ours", self.SEEDS, label="Ours-Ours", engine=engine
        )
        return [result_digest(r) for r in results]

    @pytest.mark.parametrize("scenario_name", sorted(SCENARIO_CONFIGS))
    def test_serial_path(self, scenario_name):
        assert self.digests(SweepEngine(workers=1), scenario_name) == self.expected(
            scenario_name
        )

    @pytest.mark.parametrize("scenario_name", sorted(SCENARIO_CONFIGS))
    def test_pool_path(self, scenario_name):
        assert self.digests(SweepEngine(workers=2), scenario_name) == self.expected(
            scenario_name
        )

    @pytest.mark.parametrize("scenario_name", sorted(SCENARIO_CONFIGS))
    def test_cache_hit_path(self, scenario_name, tmp_path):
        warm = SweepEngine(cache=ResultCache(tmp_path))
        assert self.digests(warm, scenario_name) == self.expected(scenario_name)
        cached = SweepEngine(cache=ResultCache(tmp_path))
        assert self.digests(cached, scenario_name) == self.expected(scenario_name)
        assert cached.stats.executed == 0
        assert cached.stats.cache_hits == len(self.SEEDS)
