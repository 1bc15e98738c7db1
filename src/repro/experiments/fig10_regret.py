"""Fig. 10 — regret for P0 versus the horizon length.

Regret is the gap between an algorithm's total cost and the offline
optimum's (both facing identical arrivals and data under common random
numbers).  The paper shows ours with the lowest regret and, matching
Theorem 3, sub-linear growth — the per-slot regret ``regret/T`` shrinks as
``T`` grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many, run_offline_many
from repro.experiments.settings import default_config, default_seeds
from repro.sim.scenario import build_scenario

__all__ = ["Fig10Result", "run", "format_result", "main", "SWEEP_COMBOS"]

PAPER_HORIZONS = (40, 80, 160, 320, 640)
FAST_HORIZONS = (40, 80, 160)
SWEEP_COMBOS = (
    ("Ran", "LY"),
    ("Greedy", "LY"),
    ("TINF", "LY"),
    ("UCB", "LY"),
)


@dataclass(frozen=True)
class Fig10Result:
    """Mean final regret per (algorithm, horizon)."""

    horizons: tuple[int, ...]
    regrets: dict[str, list[float]]

    def per_slot_regret(self, label: str) -> np.ndarray:
        """``regret / T`` — should decrease for sub-linear algorithms."""
        return np.asarray(self.regrets[label]) / np.asarray(self.horizons)

    def growth_exponent(self, label: str) -> float:
        """Power-law exponent of regret against T (Theorem 3: < 1)."""
        from repro.metrics.regret import power_law_slope

        return power_law_slope(self.horizons, self.regrets[label])

    def is_sublinear(self, label: str) -> bool:
        """Whether regret grows slower than linearly in T."""
        return self.growth_exponent(label) < 0.97


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    horizons: tuple[int, ...] | None = None,
    combos: tuple[tuple[str, str], ...] | None = None,
) -> Fig10Result:
    """Execute the Fig. 10 sweep."""
    seeds = default_seeds(fast) if seeds is None else seeds
    horizons = (FAST_HORIZONS if fast else PAPER_HORIZONS) if horizons is None else horizons
    combos = SWEEP_COMBOS if combos is None else combos

    all_combos = [("Ours", ("Ours", "Ours"))] + [
        (f"{s}-{t}", (s, t)) for s, t in combos
    ]
    regrets: dict[str, list[float]] = {label: [] for label, _ in all_combos}
    for horizon in horizons:
        config = default_config(fast, horizon=horizon)
        scenario = build_scenario(config)
        weights = config.weights
        offline_costs = [
            result.total_cost(weights)
            for result in run_offline_many(scenario, seeds)
        ]
        for label, (sel, trade) in all_combos:
            results = run_many(scenario, sel, trade, seeds, label=label)
            gaps = [
                result.total_cost(weights) - offline
                for result, offline in zip(results, offline_costs)
            ]
            regrets[label].append(float(np.mean(gaps)))
    return Fig10Result(horizons=tuple(horizons), regrets=regrets)


def format_result(result: Fig10Result) -> str:
    """Regret per horizon, plus the per-slot regret trend."""
    rows = []
    for label, values in sorted(result.regrets.items(), key=lambda kv: kv[1][-1]):
        trend = "sub-linear" if result.is_sublinear(label) else "linear+"
        rows.append([label] + list(values) + [trend])
    headers = ["algorithm"] + [f"T={t}" for t in result.horizons] + ["regret/T trend"]
    return format_table(headers, rows, title="Fig. 10 — regret for P0 vs horizon")


def main(fast: bool = True) -> Fig10Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
