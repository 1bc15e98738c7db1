"""Deadline deferral study: what the ingress tier buys under a load spike.

Drives the same spike-shaped request stream through the serve runtime
twice with a per-slot release budget — once with the carbon-aware
deferral router (EDF release order, price look-ahead, SLA priorities)
and once with the deferral-blind FIFO regime — and compares per-class
deadline-hit rates, deferral latency, emissions, and trading cost.

The punchline mirrors the paper's slack-exploitation story: when the
spike exceeds the slot budget, FIFO burns the budget on whatever arrived
first, so delay-sensitive interactive requests queue behind deferrable
batch work and miss their deadlines.  The deadline-aware router releases
by urgency and parks deferrable work for cheaper slots, cutting the miss
rate at equal request volume and equal-or-lower carbon cost.

Run:  python examples/deadline_deferral_study.py
"""

from repro.experiments.reporting import format_table
from repro.ingress import IngressConfig
from repro.obs import Tracer
from repro.serve import ServeConfig, ShardRuntime
from repro.sim import ScenarioConfig

#: Per-slot release budget — tight enough that the spike must queue.
SLOT_CAPACITY = 8

#: Total requests across the horizon (the spike concentrates ~40% of them).
TOTAL_EVENTS = 4800


def run_one(deferral: bool) -> tuple[dict, object]:
    """One serve run; returns (ingress summary, sim result)."""
    ingress = IngressConfig(deferral=deferral, slot_capacity=SLOT_CAPACITY)
    config = ServeConfig(
        scenario=ScenarioConfig(dataset="synthetic", num_edges=10, horizon=160),
        adapter="shape",
        shape="spike",
        shape_total_events=TOTAL_EVENTS,
        seed=0,
        label=f"deferral-{'on' if deferral else 'off'}",
        ingress=ingress.to_dict(),
    )
    runtime = ShardRuntime(config, tracer=Tracer())
    result = runtime.run()
    return runtime.ingress.summary(), result


def main() -> None:
    summary_off, result_off = run_one(deferral=False)
    summary_on, result_on = run_one(deferral=True)

    rows = []
    for label, summary, result in (
        ("FIFO (deferral off)", summary_off, result_off),
        ("EDF + look-ahead", summary_on, result_on),
    ):
        misses = summary["deadline_misses"]
        released = summary["requests_released"]
        rows.append([
            label,
            summary["requests_in"],
            summary["requests_deferred"],
            f"{misses / released:.3f}" if released else "n/a",
            " ".join(
                f"{name}={row['hit_rate']:.2f}"
                for name, row in summary["per_class"].items()
                if row["hit_rate"] is not None
            ),
            float(result.emissions.sum()),
            float(result.trading_cost.sum()),
        ])
    print(format_table(
        ["router", "requests", "deferred", "miss rate", "per-class hit",
         "emissions kg", "trading cost"],
        rows,
        title=f"Spike load, slot budget {SLOT_CAPACITY} "
              f"(requests conserved in both runs)",
    ))

    miss_off = summary_off["deadline_misses"] / summary_off["requests_released"]
    miss_on = summary_on["deadline_misses"] / summary_on["requests_released"]
    carbon_off = float(result_off.emissions.sum())
    carbon_on = float(result_on.emissions.sum())

    # The comparison the study exists to make: both routers serve every
    # request (conservation), but only the deadline-aware one meets SLAs.
    assert summary_on["requests_in"] == summary_off["requests_in"]
    assert miss_on < miss_off, (miss_on, miss_off)
    assert carbon_on <= carbon_off * 1.02, (carbon_on, carbon_off)
    print(
        f"\ndeferral cuts the deadline-miss rate {miss_off:.3f} -> {miss_on:.3f} "
        f"at {'equal' if carbon_on <= carbon_off else 'near-equal'} carbon "
        f"({carbon_off:.1f} -> {carbon_on:.1f} kg)"
    )


if __name__ == "__main__":
    main()
