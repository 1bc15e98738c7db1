"""Fig. 6 — total cost versus the carbon emission rate.

Raising ``rho`` raises emissions and therefore allowance purchases.  The
paper observes (i) all costs grow with the rate, (ii) ours stays the lowest
among online methods, and (iii) at high rates ours can dip *below* Offline,
because Offline satisfies the neutrality constraint exactly while our online
algorithm tolerates bounded transient violations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many, run_offline_many
from repro.experiments.settings import default_config, default_seeds
from repro.metrics.summary import summarize_many
from repro.sim.scenario import build_scenario

__all__ = ["Fig06Result", "run", "format_result", "main"]

PAPER_RATES = (0.25, 0.5, 1.0, 2.0)  # kg CO2 per kWh (paper default 0.5)
FAST_RATES = (0.25, 0.5, 1.0)
SWEEP_COMBOS = (
    ("Greedy", "LY"),
    ("TINF", "LY"),
    ("UCB", "LY"),
    ("UCB", "TH"),
)


@dataclass(frozen=True)
class Fig06Result:
    """Mean total cost per (algorithm, emission rate)."""

    rates: tuple[float, ...]
    costs: dict[str, list[float]]


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    rates: tuple[float, ...] | None = None,
) -> Fig06Result:
    """Execute the Fig. 6 sweep."""
    seeds = default_seeds(fast) if seeds is None else seeds
    rates = (FAST_RATES if fast else PAPER_RATES) if rates is None else rates

    labels = ["Ours"] + [f"{s}-{t}" for s, t in SWEEP_COMBOS] + ["Offline"]
    costs: dict[str, list[float]] = {label: [] for label in labels}
    for rate in rates:
        config = default_config(fast, rho_kg_per_kwh=rate)
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
    return Fig06Result(rates=tuple(rates), costs=costs)


def format_result(result: Fig06Result) -> str:
    """Total cost per emission rate."""
    rows = []
    for label, values in sorted(result.costs.items(), key=lambda kv: kv[1][-1]):
        rows.append([label] + list(values))
    headers = ["algorithm"] + [f"rho={r:g}" for r in result.rates]
    return format_table(headers, rows, title="Fig. 6 — total cost vs carbon emission rate")


def main(fast: bool = True) -> Fig06Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
