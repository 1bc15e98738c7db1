"""Fig. 3 — normalized cumulative total cost over time (10 edges).

The paper shows our approach's cumulative cost growing slowest and staying
closest to the offline optimum.  ``run`` produces the per-slot cumulative
cost series (averaged over seeds) for Ours, the plot-combo baselines, and
Offline; ``format_result`` prints them normalized by the worst final cost,
sampled at quarter points of the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many, run_offline_many
from repro.experiments.settings import PLOT_COMBOS, default_config, default_seeds
from repro.sim.scenario import build_scenario

__all__ = ["Fig03Result", "run", "format_result", "main"]


@dataclass(frozen=True)
class Fig03Result:
    """Cumulative-cost series per algorithm label."""

    horizon: int
    series: dict[str, np.ndarray]

    def normalized(self) -> dict[str, np.ndarray]:
        """Series divided by the largest final cumulative cost."""
        top = max(float(s[-1]) for s in self.series.values())
        if top <= 0:
            raise ValueError("degenerate result: non-positive worst-case cost")
        return {label: s / top for label, s in self.series.items()}

    def final_costs(self) -> dict[str, float]:
        """Final cumulative cost per algorithm."""
        return {label: float(s[-1]) for label, s in self.series.items()}


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    combos: tuple[tuple[str, str], ...] | None = None,
) -> Fig03Result:
    """Execute the Fig. 3 experiment."""
    config = default_config(fast)
    scenario = build_scenario(config)
    seeds = default_seeds(fast) if seeds is None else seeds
    combos = PLOT_COMBOS if combos is None else combos
    weights = config.weights

    series: dict[str, np.ndarray] = {}
    ours = run_many(scenario, "Ours", "Ours", seeds, label="Ours")
    series["Ours"] = np.mean([r.cumulative_cost(weights) for r in ours], axis=0)
    for sel, trade in combos:
        results = run_many(scenario, sel, trade, seeds)
        series[f"{sel}-{trade}"] = np.mean(
            [r.cumulative_cost(weights) for r in results], axis=0
        )
    offline = run_offline_many(scenario, seeds)
    series["Offline"] = np.mean([r.cumulative_cost(weights) for r in offline], axis=0)
    return Fig03Result(horizon=config.horizon, series=series)


def format_result(result: Fig03Result) -> str:
    """Normalized cumulative cost at quarter points of the horizon."""
    marks = [result.horizon // 4 - 1, result.horizon // 2 - 1,
             3 * result.horizon // 4 - 1, result.horizon - 1]
    normalized = result.normalized()
    order = sorted(normalized, key=lambda k: normalized[k][-1])
    rows = [[label] + [float(normalized[label][m]) for m in marks] for label in order]
    headers = ["algorithm"] + [f"t={m + 1}" for m in marks]
    return format_table(
        headers, rows, title="Fig. 3 — normalized cumulative total cost (10 edges)"
    )


def main(fast: bool = True) -> Fig03Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
