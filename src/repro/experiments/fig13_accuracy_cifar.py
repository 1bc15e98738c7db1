"""Fig. 13 — per-slot inference accuracy on the CIFAR-10-like stream.

Same protocol as Fig. 12, but over the harder 3-channel dataset and its
model zoo (small CNNs, LeNet-5, MobileNet-V1-style); absolute accuracies are
lower, with the same ordering of algorithms.
"""

from __future__ import annotations

from repro.experiments import fig12_accuracy_mnist as _fig12

__all__ = ["Fig13Result", "run", "format_result", "main"]

Fig13Result = _fig12.Fig12Result

TITLE = "Fig. 13 — inference accuracy per slot (CIFAR-10-like)"


def run(
    fast: bool = True,
    seeds: list[int] | None = None,
) -> Fig13Result:
    """Execute the CIFAR accuracy experiment.

    ``fast=True`` uses synthetic profiles with a different scenario seed (so
    the zoo differs from Fig. 12's); ``fast=False`` uses the trained
    CIFAR-10-like zoo.
    """
    if fast:
        # A distinct synthetic zoo: shift the scenario seed.
        from repro.experiments.settings import default_config, default_seeds
        from repro.experiments.runner import run_many, run_offline_many
        from repro.sim.scenario import build_scenario
        import numpy as np

        config = default_config(True, seed=13)
        scenario = build_scenario(config)
        seeds = default_seeds(True) if seeds is None else seeds
        accuracy = {}
        ours = run_many(scenario, "Ours", "Ours", seeds, label="Ours")
        accuracy["Ours"] = np.mean([r.accuracy for r in ours], axis=0)
        for sel, trade in _fig12.ACCURACY_ALGOS:
            label = f"{sel}-{trade}"
            results = run_many(scenario, sel, trade, seeds, label=label)
            accuracy[label] = np.mean([r.accuracy for r in results], axis=0)
        offline = run_offline_many(scenario, seeds)
        accuracy["Offline"] = np.mean([r.accuracy for r in offline], axis=0)
        return Fig13Result(horizon=config.horizon, accuracy=accuracy)
    return _fig12.run(fast=False, seeds=seeds, dataset="cifar10")


def format_result(result: Fig13Result) -> str:
    """Accuracy over four equal windows of the horizon."""
    return _fig12.format_result(result, title=TITLE)


def main(fast: bool = True) -> Fig13Result:
    """Run and print the experiment."""
    result = run(fast=fast)
    print(format_result(result))
    return result


if __name__ == "__main__":
    main()
