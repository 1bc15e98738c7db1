"""Fig. 4 — normalized total cost versus the number of edges.

The paper scales the system from 10 to 50 edges and reports that our
approach always incurs the lowest cost, with average reductions of 21-55%
against the eight plot combos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many, run_offline_many
from repro.experiments.settings import PLOT_COMBOS, default_config, default_seeds
from repro.metrics.summary import summarize_many
from repro.sim.scenario import build_scenario

__all__ = ["Fig04Result", "run", "format_result", "main"]

PAPER_EDGE_COUNTS = (10, 20, 30, 40, 50)
FAST_EDGE_COUNTS = (5, 10, 15)


@dataclass(frozen=True)
class Fig04Result:
    """Mean total cost per (algorithm, edge count)."""

    edge_counts: tuple[int, ...]
    costs: dict[str, list[float]]

    def reductions_vs(self, label: str = "Ours") -> dict[str, float]:
        """Average cost reduction of ``label`` against each other algorithm."""
        ours = np.asarray(self.costs[label])
        out = {}
        for other, values in self.costs.items():
            if other in (label, "Offline"):
                continue
            other_arr = np.asarray(values)
            out[other] = float(np.mean(1.0 - ours / other_arr))
        return out


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    edge_counts: tuple[int, ...] | None = None,
    combos: tuple[tuple[str, str], ...] | None = None,
) -> Fig04Result:
    """Execute the Fig. 4 sweep."""
    seeds = default_seeds(fast) if seeds is None else seeds
    edge_counts = (FAST_EDGE_COUNTS if fast else PAPER_EDGE_COUNTS) if edge_counts is None else edge_counts
    combos = PLOT_COMBOS if combos is None else combos

    labels = ["Ours"] + [f"{s}-{t}" for s, t in combos] + ["Offline"]
    costs: dict[str, list[float]] = {label: [] for label in labels}
    for num_edges in edge_counts:
        config = default_config(fast, num_edges=num_edges)
        scenario = build_scenario(config)
        weights = config.weights
        results = run_many(scenario, "Ours", "Ours", seeds, label="Ours")
        costs["Ours"].append(summarize_many(results, weights).total_cost)
        for sel, trade in combos:
            label = f"{sel}-{trade}"
            results = run_many(scenario, sel, trade, seeds, label=label)
            costs[label].append(summarize_many(results, weights).total_cost)
        offline = run_offline_many(scenario, seeds)
        costs["Offline"].append(summarize_many(offline, weights, label="Offline").total_cost)
    return Fig04Result(edge_counts=tuple(edge_counts), costs=costs)


def format_result(result: Fig04Result) -> str:
    """Total cost per edge count, normalized by the worst algorithm."""
    top = max(max(v) for v in result.costs.values())
    rows = []
    for label, values in sorted(result.costs.items(), key=lambda kv: kv[1][-1]):
        rows.append([label] + [v / top for v in values])
    headers = ["algorithm"] + [f"I={i}" for i in result.edge_counts]
    table = format_table(headers, rows, title="Fig. 4 — normalized total cost vs edges")
    reductions = result.reductions_vs()
    lines = [table, "", "Average reduction of Ours vs:"]
    for label, red in sorted(reductions.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {label:12s} {100 * red:5.1f}%")
    return "\n".join(lines)


def main(fast: bool = True) -> Fig04Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
