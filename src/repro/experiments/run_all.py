"""Run every paper experiment and print its table.

Usage::

    python -m repro.experiments.run_all          # fast mode, all figures
    python -m repro.experiments.run_all --full   # paper-scale (slow)
    python -m repro.experiments.run_all fig04 fig10   # a subset
    python -m repro.experiments.run_all --ext    # also the extension studies
    python -m repro.experiments.run_all --workers 4   # parallel seed sweeps

Seed sweeps run through one :class:`~repro.experiments.engine.SweepEngine`:
``--workers N`` fans cells over a process pool, and completed cells land in
an on-disk result cache (default ``.repro_cache/``; relocate with
``--cache DIR`` or disable with ``--no-cache``) so repeated runs skip
simulation entirely.  A run that stops part-way resumes on the next cached
run: the finished cells load from the cache and only the rest execute.
Parallel and cached runs are bit-identical to serial ones — every cell
derives all randomness from its own seed.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import (
    ext_delay,
    ext_forecast,
    ext_heterogeneity,
    fig03_cumulative_cost,
    fig04_total_cost_vs_edges,
    fig05_switching_weight,
    fig06_emission_rate,
    fig07_carbon_cap,
    fig08_selection_histogram,
    fig09_trading_vs_workload,
    fig10_regret,
    fig11_fit,
    fig12_accuracy_mnist,
    fig13_accuracy_cifar,
    fig14_runtime,
)
from repro.experiments.cache import ResultCache
from repro.experiments.engine import SweepEngine, use_engine
from repro.faults import load_plan

__all__ = [
    "DEFAULT_CACHE_DIR",
    "EXPERIMENTS",
    "EXTENSIONS",
    "build_parser",
    "main",
    "make_engine",
]

EXPERIMENTS = {
    "fig03": fig03_cumulative_cost,
    "fig04": fig04_total_cost_vs_edges,
    "fig05": fig05_switching_weight,
    "fig06": fig06_emission_rate,
    "fig07": fig07_carbon_cap,
    "fig08": fig08_selection_histogram,
    "fig09": fig09_trading_vs_workload,
    "fig10": fig10_regret,
    "fig11": fig11_fit,
    "fig12": fig12_accuracy_mnist,
    "fig13": fig13_accuracy_cifar,
    "fig14": fig14_runtime,
}

#: Beyond-the-paper studies (future work + robustness); run with --ext or by name.
EXTENSIONS = {
    "ext_forecast": ext_forecast,
    "ext_delay": ext_delay,
    "ext_heterogeneity": ext_heterogeneity,
}

#: Where sweep results land unless ``--cache DIR`` / ``--no-cache`` says otherwise.
DEFAULT_CACHE_DIR = ".repro_cache"


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the experiment suite."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.run_all",
        description="run the paper-figure experiments",
    )
    parser.add_argument("figures", nargs="*",
                        help="e.g. fig10 fig11 (default: all paper figures)")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale settings (slow)")
    parser.add_argument("--ext", action="store_true",
                        help="also run the extension studies")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process-pool size for seed sweeps (1 = serial)")
    parser.add_argument("--cache", metavar="DIR", default=DEFAULT_CACHE_DIR,
                        help="result-cache directory "
                             f"(default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="fault plan applied to every sweep cell "
                             "(JSON, see repro.faults)")
    return parser


def make_engine(args: argparse.Namespace) -> SweepEngine:
    """The engine described by parsed ``--workers``/``--cache`` options."""
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    cache = None if args.no_cache else ResultCache(args.cache)
    faults = load_plan(args.faults) if args.faults else None
    return SweepEngine(workers=args.workers, cache=cache, faults=faults)


def main(argv: list[str] | None = None) -> None:
    """Run the selected (default: all) experiments and print tables."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    fast = not args.full
    registry = {**EXPERIMENTS, **EXTENSIONS}
    selected = list(args.figures)
    if not selected:
        selected = list(EXPERIMENTS)
        if args.ext:
            selected += list(EXTENSIONS)
    unknown = [name for name in selected if name not in registry]
    if unknown:
        raise SystemExit(f"unknown experiments: {unknown}; known: {sorted(registry)}")
    engine = make_engine(args)
    mode = "fast" if fast else "paper-scale"
    print(f"Running {len(selected)} experiments ({mode} mode, "
          f"workers={engine.workers}, "
          f"cache={'off' if engine.cache is None else engine.cache.directory})\n")
    with use_engine(engine):
        for name in selected:
            start = time.perf_counter()
            registry[name].main(fast=fast)
            print(f"[{name} finished in {time.perf_counter() - start:.1f}s]\n")
    stats = engine.stats
    if stats.cells:
        print(f"sweep cells: {stats.cells} total, {stats.executed} executed, "
              f"{stats.cache_hits} cache hits")


if __name__ == "__main__":
    main()
