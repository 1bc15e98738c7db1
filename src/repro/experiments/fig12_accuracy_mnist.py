"""Fig. 12 — per-slot inference accuracy on the MNIST-like stream.

The paper plots the accuracy achieved by the hosted models at each slot.
Greedy-Ran is worst (it optimizes energy only); TINF-Ran and UCB-Ran are
comparable to ours; ours ends closest to Offline.

``fast=True`` substitutes the synthetic profile zoo; ``fast=False`` uses the
trained MNIST-like numpy model zoo (real forward-pass losses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many, run_offline_many
from repro.experiments.settings import default_config, default_seeds
from repro.sim.scenario import build_scenario

__all__ = ["Fig12Result", "run", "format_result", "main", "ACCURACY_ALGOS"]

ACCURACY_ALGOS = (("Greedy", "Ran"), ("TINF", "Ran"), ("UCB", "Ran"))

DATASET = "mnist"
TITLE = "Fig. 12 — inference accuracy per slot (MNIST-like)"


@dataclass(frozen=True)
class Fig12Result:
    """Mean per-slot accuracy per algorithm."""

    horizon: int
    accuracy: dict[str, np.ndarray]

    def windowed(self, windows: int = 4) -> dict[str, list[float]]:
        """Mean accuracy over equal windows of the horizon."""
        size = self.horizon // windows
        out = {}
        for label, series in self.accuracy.items():
            out[label] = [
                float(np.nanmean(series[w * size : (w + 1) * size]))
                for w in range(windows)
            ]
        return out

    def final_window_accuracy(self, label: str) -> float:
        """Accuracy over the last quarter of the horizon."""
        return self.windowed()[label][-1]


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    dataset: str | None = None,
) -> Fig12Result:
    """Execute the accuracy experiment."""
    config = default_config(fast, dataset=dataset if dataset else ("synthetic" if fast else DATASET))
    scenario = build_scenario(config)
    seeds = default_seeds(fast) if seeds is None else seeds

    accuracy: dict[str, np.ndarray] = {}
    ours = run_many(scenario, "Ours", "Ours", seeds, label="Ours")
    accuracy["Ours"] = np.mean([r.accuracy for r in ours], axis=0)
    for sel, trade in ACCURACY_ALGOS:
        label = f"{sel}-{trade}"
        results = run_many(scenario, sel, trade, seeds, label=label)
        accuracy[label] = np.mean([r.accuracy for r in results], axis=0)
    offline = run_offline_many(scenario, seeds)
    accuracy["Offline"] = np.mean([r.accuracy for r in offline], axis=0)
    return Fig12Result(horizon=config.horizon, accuracy=accuracy)


def format_result(result: Fig12Result, title: str = TITLE) -> str:
    """Accuracy over four equal windows of the horizon."""
    windows = result.windowed()
    rows = [
        [label] + values
        for label, values in sorted(windows.items(), key=lambda kv: -kv[1][-1])
    ]
    headers = ["algorithm", "Q1", "Q2", "Q3", "Q4"]
    return format_table(headers, rows, title=title)


def main(fast: bool = True) -> Fig12Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
