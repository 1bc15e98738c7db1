"""Quickstart: carbon-neutral edge AI inference in a few calls.

Builds the paper's default scenario (10 edges, a two-day horizon of 160
fifteen-minute slots, 6 models, EU-permit-style allowance prices), runs the
paper's two online algorithms jointly through the one-call ``repro.run``
API, and prints the cost breakdown, the carbon-neutrality status, and the
comparison against the offline optimum.

Run:  python examples/quickstart.py
"""

import repro
from repro.experiments.runner import run_offline
from repro.metrics import summarize_run
from repro.sim import ScenarioConfig, build_scenario


def main() -> None:
    # 1. Describe the system (synthetic profiles keep this instant; use
    #    dataset="mnist" for the trained numpy model zoo).  Building the
    #    scenario once lets the offline comparison below reuse it.
    config = ScenarioConfig(dataset="synthetic", num_edges=10, horizon=160)
    scenario = build_scenario(config)

    # 2. Simulate the full horizon: "Ours" resolves to one Algorithm-1
    #    policy per edge plus the Algorithm-2 trading policy, calibrated to
    #    the scenario by the repro.policies registry.
    spec = repro.RunSpec(
        scenario=config, selection="Ours", trading="Ours", seed=42, label="Ours"
    )
    result = repro.run(spec, scenario=scenario)

    # 3. Inspect the outcome.
    summary = summarize_run(result, config.weights)
    print("=== Ours (Algorithm 1 + Algorithm 2) ===")
    print(f"total cost        : {summary.total_cost:10.1f}")
    print(f"  inference       : {summary.inference_cost:10.1f}")
    print(f"  computation     : {summary.compute_cost:10.1f}")
    print(f"  switching       : {summary.switching_cost:10.1f} ({summary.switches:.0f} downloads)")
    print(f"  allowance trade : {summary.trading_cost:10.1f}")
    print(f"emissions         : {summary.emissions:10.1f} kg")
    print(f"net allowances    : {summary.net_purchase:10.1f} kg bought")
    print(f"neutrality gap    : {summary.final_fit:10.1f} kg "
          f"({100 * summary.final_fit / summary.emissions:.1f}% of emissions)")
    print(f"stream accuracy   : {summary.mean_accuracy:10.3f}")

    # 4. Compare against the clairvoyant offline optimum.
    offline = run_offline(scenario, seed=42)
    offline_cost = offline.total_cost(config.weights)
    print("\n=== Offline optimum (hindsight) ===")
    print(f"total cost        : {offline_cost:10.1f}")
    print(f"regret of Ours    : {summary.total_cost - offline_cost:10.1f}")


if __name__ == "__main__":
    main()
