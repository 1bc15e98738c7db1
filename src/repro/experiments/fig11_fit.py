"""Fig. 11 — fit (carbon-neutrality violation) versus the horizon length.

The fit is the cumulative positive violation of constraint (1c).  The paper
shows ours starting non-zero but quickly vanishing relative to the horizon
(Theorem 2: ``O(T^{2/3})``), while cap-oblivious traders grow linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import format_table
from repro.experiments.runner import run_many
from repro.experiments.settings import default_config, default_seeds
from repro.sim.scenario import build_scenario

__all__ = ["Fig11Result", "run", "format_result", "main"]

PAPER_HORIZONS = (40, 80, 160, 320, 640)
FAST_HORIZONS = (40, 80, 160)
SWEEP_COMBOS = (
    ("UCB", "Ran"),
    ("UCB", "TH"),
    ("UCB", "LY"),
)


@dataclass(frozen=True)
class Fig11Result:
    """Mean final fit per (algorithm, horizon)."""

    horizons: tuple[int, ...]
    fits: dict[str, list[float]]

    def per_slot_fit(self, label: str) -> np.ndarray:
        """``fit / T`` — vanishes for sub-linear-fit algorithms."""
        return np.asarray(self.fits[label]) / np.asarray(self.horizons)

    def growth_exponent(self, label: str) -> float:
        """Power-law exponent of fit against T (Theorem 2: <= 2/3)."""
        from repro.metrics.regret import power_law_slope

        return power_law_slope(self.horizons, self.fits[label])

    def is_sublinear(self, label: str) -> bool:
        """Whether fit grows slower than linearly in T."""
        return self.growth_exponent(label) < 0.97


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
    horizons: tuple[int, ...] | None = None,
    combos: tuple[tuple[str, str], ...] | None = None,
) -> Fig11Result:
    """Execute the Fig. 11 sweep."""
    seeds = default_seeds(fast) if seeds is None else seeds
    horizons = (FAST_HORIZONS if fast else PAPER_HORIZONS) if horizons is None else horizons
    combos = SWEEP_COMBOS if combos is None else combos

    all_combos = [("Ours", ("Ours", "Ours"))] + [
        (f"{s}-{t}", (s, t)) for s, t in combos
    ]
    fits: dict[str, list[float]] = {label: [] for label, _ in all_combos}
    for horizon in horizons:
        config = default_config(fast, horizon=horizon)
        scenario = build_scenario(config)
        for label, (sel, trade) in all_combos:
            results = run_many(scenario, sel, trade, seeds, label=label)
            fits[label].append(float(np.mean([r.final_fit() for r in results])))
    return Fig11Result(horizons=tuple(horizons), fits=fits)


def format_result(result: Fig11Result) -> str:
    """Fit per horizon, plus the per-slot fit trend."""
    rows = []
    for label, values in sorted(result.fits.items(), key=lambda kv: kv[1][-1]):
        trend = "sub-linear" if result.is_sublinear(label) else "linear+"
        rows.append([label] + list(values) + [trend])
    headers = ["algorithm"] + [f"T={t}" for t in result.horizons] + ["fit/T trend"]
    return format_table(headers, rows, title="Fig. 11 — fit (neutrality violation) vs horizon")


def main(fast: bool = True) -> Fig11Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
