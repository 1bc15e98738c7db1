"""Fig. 14 — per-slot execution time of Algorithms 1 and 2 versus edges.

The paper times both algorithms on a commodity CPU: at 50 edges Algorithm 1
finishes in ~61 s *per horizon* and Algorithm 2 in ~0.21 s, both far below
the 15-minute slot length.  We time the algorithms' own decision/update
calls directly (excluding simulator bookkeeping): Algorithm 1's cost grows
linearly with the number of edges, Algorithm 2's stays flat (its decision
space is two scalars regardless of system size).

Timing goes through :meth:`repro.obs.Tracer.timer` — each slot is one entry
of a :class:`~repro.obs.metrics.Timer`, so the reported per-slot seconds
are the timer's ``mean_seconds`` and each timer's count, max and
quantiles stay inspectable via ``tracer.metrics_snapshot()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import format_table
from repro.experiments.settings import default_config
from repro.obs import Timer, Tracer
from repro.policies import make_selection_policies, make_trading_policy
from repro.policies.trading import TradeDecision, TradingContext
from repro.sim.scenario import build_scenario
from repro.spec import RunSpec
from repro.utils.rng import RngFactory

__all__ = ["Fig14Result", "run", "format_result", "main"]

PAPER_EDGE_COUNTS = (10, 20, 30, 40, 50)
FAST_EDGE_COUNTS = (5, 10, 20)


def _spec_policies(config, scenario):
    """Policies wired exactly as ``Simulator.from_spec`` would wire them.

    The timed algorithm instances come from the :mod:`repro.policies`
    registry with the same RNG stream layout users get, so the measurement
    covers the code path of a real ``RunSpec`` run (not a hand-rolled
    construction that could drift from it).
    """
    spec = RunSpec(scenario=config, selection="Ours", trading="Ours", seed=0)
    rng_factory = RngFactory(spec.seed).child(f"{spec.selection}-{spec.trading}")
    policies = make_selection_policies(spec.selection, scenario, rng_factory)
    trader = make_trading_policy(spec.trading, scenario, rng_factory)
    return policies, trader


@dataclass(frozen=True)
class Fig14Result:
    """Mean per-slot wall time (seconds) of each algorithm per edge count."""

    edge_counts: tuple[int, ...]
    alg1_seconds_per_slot: list[float]
    alg2_seconds_per_slot: list[float]

    def alg1_scales_with_edges(self) -> bool:
        """Algorithm 1 runs once per edge, so its time should grow."""
        return self.alg1_seconds_per_slot[-1] > self.alg1_seconds_per_slot[0]


def _time_algorithm1(num_edges: int, horizon: int, fast: bool, timer: Timer) -> float:
    """Seconds per slot spent in Algorithm 1 select/observe across edges."""
    config = default_config(fast, num_edges=num_edges, horizon=horizon)
    scenario = build_scenario(config)
    policies, _ = _spec_policies(config, scenario)
    loss_rng = RngFactory(0).get("losses")
    losses = loss_rng.uniform(0.0, 2.0, size=(horizon, num_edges))
    for t in range(horizon):
        with timer:
            for i, policy in enumerate(policies):
                model = policy.select(t)
                policy.observe(t, model, float(losses[t, i]))
    return timer.mean_seconds


def _time_algorithm2(num_edges: int, horizon: int, fast: bool, timer: Timer) -> float:
    """Seconds per slot spent in Algorithm 2 decide/observe."""
    config = default_config(fast, num_edges=num_edges, horizon=horizon)
    scenario = build_scenario(config)
    _, policy = _spec_policies(config, scenario)
    emissions_rng = RngFactory(1).get("emissions")
    emissions = emissions_rng.uniform(
        0.0, 2.0 * scenario.estimated_slot_emissions(), size=horizon
    )
    for t in range(horizon):
        context = TradingContext(
            t=t,
            horizon=horizon,
            cap=config.carbon_cap_kg,
            buy_price=float(scenario.prices.buy[t]),
            sell_price=float(scenario.prices.sell[t]),
            prev_buy_price=float(scenario.prices.buy[max(t - 1, 0)]),
            prev_sell_price=float(scenario.prices.sell[max(t - 1, 0)]),
            prev_emissions=float(emissions[max(t - 1, 0)]),
            cumulative_emissions=float(emissions[:t].sum()),
            holdings=config.carbon_cap_kg,
            mean_slot_emissions=float(emissions[: max(t, 1)].mean()),
            trade_bound=scenario.trade_bound,
        )
        with timer:
            decision = policy.decide(context)
            decision = TradeDecision(
                buy=min(decision.buy, scenario.trade_bound),
                sell=min(decision.sell, scenario.trade_bound),
            )
            policy.observe(context, decision, float(emissions[t]))
    return timer.mean_seconds


def run(
    fast: bool = True,
    edge_counts: tuple[int, ...] | None = None,
    horizon: int | None = None,
    tracer: Tracer | None = None,
) -> Fig14Result:
    """Execute the runtime measurement.

    Pass a ``tracer`` to keep the per-(algorithm, edge-count) timers — named
    ``alg1/I=<n>`` and ``alg2/I=<n>`` — for inspection after the run.
    """
    edge_counts = (FAST_EDGE_COUNTS if fast else PAPER_EDGE_COUNTS) if edge_counts is None else edge_counts
    horizon = (80 if fast else 160) if horizon is None else horizon
    tracer = Tracer() if tracer is None else tracer
    alg1 = [
        _time_algorithm1(i, horizon, fast, tracer.timer(f"alg1/I={i}"))
        for i in edge_counts
    ]
    alg2 = [
        _time_algorithm2(i, horizon, fast, tracer.timer(f"alg2/I={i}"))
        for i in edge_counts
    ]
    return Fig14Result(
        edge_counts=tuple(edge_counts),
        alg1_seconds_per_slot=alg1,
        alg2_seconds_per_slot=alg2,
    )


def format_result(result: Fig14Result) -> str:
    """Per-slot wall time per algorithm and edge count."""
    rows = [
        ["Algorithm 1 (s/slot)"] + result.alg1_seconds_per_slot,
        ["Algorithm 2 (s/slot)"] + result.alg2_seconds_per_slot,
    ]
    headers = ["algorithm"] + [f"I={i}" for i in result.edge_counts]
    return format_table(
        headers, rows, title="Fig. 14 — per-slot execution time", precision=6
    )


def main(fast: bool = True) -> Fig14Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
