"""Fig. 8 — number of model selections versus expected loss (one edge).

The paper picks one edge and plots how often each model was selected: our
approach selects low-loss models increasingly often, Offline always hosts
the minimum-loss(+latency) model, and Greedy always hosts the lowest-energy
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many
from repro.experiments.settings import default_config, default_seeds
from repro.offline import best_fixed_models
from repro.sim.scenario import build_scenario

__all__ = ["Fig08Result", "run", "format_result", "main"]


@dataclass(frozen=True)
class Fig08Result:
    """Per-model statistics on the inspected edge."""

    edge: int
    model_names: list[str]
    expected_losses: np.ndarray
    ours_counts: np.ndarray  # mean selections per model (over seeds)
    offline_choice: int
    greedy_choice: int

    def loss_count_correlation(self) -> float:
        """Pearson correlation between expected loss and selection count.

        Should be strongly negative: lower loss, more selections.
        """
        return float(np.corrcoef(self.expected_losses, self.ours_counts)[0, 1])


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    edge: int = 0,
) -> Fig08Result:
    """Execute the Fig. 8 experiment."""
    config = default_config(fast)
    scenario = build_scenario(config)
    seeds = default_seeds(fast) if seeds is None else seeds
    if not 0 <= edge < scenario.num_edges:
        raise ValueError(f"edge {edge} outside [0, {scenario.num_edges})")

    results = run_many(scenario, "Ours", "Ours", seeds, label="Ours")
    counts = np.zeros(scenario.num_models)
    for result in results:
        values, freqs = np.unique(result.selections[:, edge], return_counts=True)
        counts[values] += freqs
    counts /= len(seeds)

    offline_models = best_fixed_models(scenario.expected_losses, scenario.latencies)
    greedy_choice = int(np.argmin(scenario.energy.phi_kwh))
    return Fig08Result(
        edge=edge,
        model_names=[p.name for p in scenario.profiles],
        expected_losses=scenario.expected_losses,
        ours_counts=counts,
        offline_choice=int(offline_models[edge]),
        greedy_choice=greedy_choice,
    )


def format_result(result: Fig08Result) -> str:
    """Per-model table sorted by expected loss."""
    order = np.argsort(result.expected_losses)
    rows = []
    for n in order:
        marks = []
        if n == result.offline_choice:
            marks.append("Offline")
        if n == result.greedy_choice:
            marks.append("Greedy")
        rows.append(
            [
                result.model_names[n],
                float(result.expected_losses[n]),
                float(result.ours_counts[n]),
                ",".join(marks) if marks else "-",
            ]
        )
    table = format_table(
        ["model", "E[loss]", "ours selections", "fixed choice of"],
        rows,
        title=f"Fig. 8 — selections vs expected loss (edge {result.edge})",
    )
    corr = result.loss_count_correlation()
    return f"{table}\n\nloss/selections correlation: {corr:.3f} (expect strongly negative)"


def main(fast: bool = True) -> Fig08Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
