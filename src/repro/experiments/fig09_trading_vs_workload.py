"""Fig. 9 — carbon trading volume versus inference workload.

The paper shows that our approach's net allowance purchases track the
workload (more traffic, more emissions, more purchases), while UCB-Ran and
UCB-TH trade obliviously to it; it also compares the normalized unit cost of
carbon purchases, where our approach is lowest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many
from repro.experiments.settings import default_config, default_seeds
from repro.sim.scenario import build_scenario

__all__ = ["Fig09Result", "run", "format_result", "main"]

ALGORITHMS = (("Ours", "Ours"), ("UCB", "Ran"), ("UCB", "TH"))


@dataclass(frozen=True)
class Fig09Result:
    """Workload/net-purchase series and unit purchase costs per algorithm."""

    arrivals: np.ndarray  # mean total arrivals per slot
    net_purchases: dict[str, np.ndarray]  # label -> mean per-slot net purchase
    unit_costs: dict[str, float]  # label -> mean cost per net allowance

    def workload_correlation(self, label: str) -> float:
        """Pearson correlation of net purchases with the workload."""
        series = self.net_purchases[label]
        if np.std(series) == 0 or np.std(self.arrivals) == 0:
            return 0.0
        return float(np.corrcoef(self.arrivals, series)[0, 1])


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
) -> Fig09Result:
    """Execute the Fig. 9 experiment."""
    config = default_config(fast)
    scenario = build_scenario(config)
    seeds = default_seeds(fast) if seeds is None else seeds

    arrivals: np.ndarray | None = None
    net_purchases: dict[str, np.ndarray] = {}
    unit_costs: dict[str, float] = {}
    for sel, trade in ALGORITHMS:
        label = "Ours" if sel == trade == "Ours" else f"{sel}-{trade}"
        results = run_many(scenario, sel, trade, seeds, label=label)
        net_purchases[label] = np.mean(
            [r.net_purchase_series() for r in results], axis=0
        )
        per_seed = [r.unit_purchase_cost() for r in results]
        finite = [u for u in per_seed if not np.isnan(u)]
        unit_costs[label] = float(np.mean(finite)) if finite else float("nan")
        if arrivals is None:
            arrivals = np.mean([r.arrivals for r in results], axis=0)
    assert arrivals is not None
    return Fig09Result(
        arrivals=arrivals, net_purchases=net_purchases, unit_costs=unit_costs
    )


def format_result(result: Fig09Result) -> str:
    """Correlation with workload and unit purchase cost per algorithm."""
    rows = []
    for label in result.net_purchases:
        rows.append(
            [
                label,
                result.workload_correlation(label),
                result.unit_costs[label],
            ]
        )
    rows.sort(key=lambda r: r[2])
    return format_table(
        ["algorithm", "corr(net purchase, workload)", "unit purchase cost"],
        rows,
        title="Fig. 9 — trading volume vs workload",
    )


def main(fast: bool = True) -> Fig09Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
