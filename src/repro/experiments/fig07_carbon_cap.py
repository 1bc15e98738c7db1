"""Fig. 7 — total cost versus the initial carbon cap.

A larger pre-allocated cap means fewer allowances to purchase.  The paper
observes the cost of cap-aware methods (ours, Offline, UCB-LY) decreasing
with the cap, while UCB-Ran and UCB-TH stay flat because their trading
ignores the cap entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many, run_offline_many
from repro.experiments.settings import default_config, default_seeds
from repro.metrics.summary import summarize_many
from repro.sim.scenario import build_scenario

__all__ = ["Fig07Result", "run", "format_result", "main"]

PAPER_CAPS = (0.0, 250.0, 500.0, 750.0, 1000.0)
FAST_CAPS = (0.0, 500.0, 1000.0)
SWEEP_COMBOS = (
    ("UCB", "Ran"),
    ("UCB", "TH"),
    ("UCB", "LY"),
)


@dataclass(frozen=True)
class Fig07Result:
    """Mean total cost per (algorithm, cap)."""

    caps: tuple[float, ...]
    costs: dict[str, list[float]]

    def slope(self, label: str) -> float:
        """Linear trend of cost against cap (negative = cap-aware)."""
        values = np.asarray(self.costs[label])
        caps = np.asarray(self.caps)
        return float(np.polyfit(caps, values, 1)[0])


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    caps: tuple[float, ...] | None = None,
) -> Fig07Result:
    """Execute the Fig. 7 sweep."""
    seeds = default_seeds(fast) if seeds is None else seeds
    caps = (FAST_CAPS if fast else PAPER_CAPS) if caps is None else caps

    labels = ["Ours"] + [f"{s}-{t}" for s, t in SWEEP_COMBOS] + ["Offline"]
    costs: dict[str, list[float]] = {label: [] for label in labels}
    for cap in caps:
        config = default_config(fast, carbon_cap_kg=cap)
        scenario = build_scenario(config)
        weights = config.weights
        results = run_many(scenario, "Ours", "Ours", seeds, label="Ours")
        costs["Ours"].append(summarize_many(results, weights).total_cost)
        for sel, trade in SWEEP_COMBOS:
            label = f"{sel}-{trade}"
            results = run_many(scenario, sel, trade, seeds, label=label)
            costs[label].append(summarize_many(results, weights).total_cost)
        offline = run_offline_many(scenario, seeds)
        costs["Offline"].append(summarize_many(offline, weights, label="Offline").total_cost)
    return Fig07Result(caps=tuple(caps), costs=costs)


def format_result(result: Fig07Result) -> str:
    """Total cost per cap, with the cost-vs-cap slope per algorithm."""
    rows = []
    for label, values in sorted(result.costs.items(), key=lambda kv: kv[1][-1]):
        rows.append([label] + list(values) + [result.slope(label)])
    headers = ["algorithm"] + [f"R={c:g}" for c in result.caps] + ["slope"]
    return format_table(headers, rows, title="Fig. 7 — total cost vs initial carbon cap")


def main(fast: bool = True) -> Fig07Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
