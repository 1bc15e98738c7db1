"""Fault-injection study: Fig. 6 under a mid-run carbon-market outage.

Re-runs the paper's emission-rate sweep (Fig. 6) twice — once clean, once
under a ``SweepEngine`` with a deterministic fault plan that takes the
allowance market offline for the middle quarter of the horizon and rejects
5% of the remaining trades.  During the outage every trading
policy degrades the same way: intents are carried over (bounded by the
per-slot trade bound) and reconcile when the market returns, while the
dual ascent keeps updating on the *realized* zero trades.

The table shows each algorithm's total cost per emission rate, clean vs
outage, and the relative cost increase.  Cap-aware policies (Ours, LY)
pay for the outage — they lean on trading to stay neutral — while
trading-agnostic baselines barely move, which is exactly the paper's
story about why allowance trading matters.

Both sweeps are bit-reproducible: the fault realization derives from the
run seed and the plan alone, so re-running this script reproduces every
number exactly.

Run:  python examples/fault_injection_study.py
"""

from repro.experiments import fig06_emission_rate
from repro.experiments.engine import SweepEngine, use_engine
from repro.experiments.reporting import format_table
from repro.experiments.settings import default_config
from repro.faults import FaultPlan, MarketOutage, TradeRejection


def outage_plan(horizon: int) -> FaultPlan:
    """Market offline for the middle quarter, light rejections elsewhere."""
    return FaultPlan((
        MarketOutage(start=3 * horizon // 8, end=5 * horizon // 8),
        TradeRejection(probability=0.05),
    ))


def main() -> None:
    horizon = default_config(fast=True).horizon
    plan = outage_plan(horizon)
    clean = fig06_emission_rate.run(fast=True)
    with use_engine(SweepEngine(faults=plan)):
        faulted = fig06_emission_rate.run(fast=True)

    rates = clean.rates
    rows = []
    for label in sorted(clean.costs, key=lambda k: clean.costs[k][-1]):
        clean_costs = clean.costs[label]
        outage_costs = faulted.costs[label]
        worst_bump = max(
            (o - c) / c for c, o in zip(clean_costs, outage_costs)
        )
        rows.append(
            [label]
            + [f"{c:.0f}/{o:.0f}" for c, o in zip(clean_costs, outage_costs)]
            + [f"{100 * worst_bump:+.1f}%"]
        )
    headers = (
        ["algorithm"]
        + [f"rho={rate} clean/outage" for rate in rates]
        + ["worst bump"]
    )
    window = plan.of_kind("market_outage")[0]
    print(
        format_table(
            headers,
            rows,
            title=(
                "Fig. 6 under a market outage "
                f"(slots [{window.start}, {window.end}) offline, 5% rejections)"
            ),
        )
    )


if __name__ == "__main__":
    main()
