"""Experiment harness: one module per paper figure (Fig. 3-14).

Each ``figNN_*`` module exposes ``run(fast=True) -> <FigureResult>`` and a
``format_result`` renderer; ``python -m repro.experiments.run_all`` executes
everything and prints the tables recorded in EXPERIMENTS.md.  ``fast=True``
runs a reduced-size configuration (synthetic profiles, fewer seeds) suitable
for CI and benchmarks; ``fast=False`` reproduces the paper-scale settings
with the trained model zoos.

Seed sweeps run through the :class:`~repro.experiments.engine.SweepEngine`
chosen with :func:`~repro.experiments.engine.use_engine`: a serial loop or
a ``--workers N`` process pool, plus an optional on-disk
:class:`~repro.experiments.cache.ResultCache`, with results bit-identical
to serial uncached runs.
"""

from repro.experiments.cache import ResultCache, cell_key, scenario_fingerprint
from repro.experiments.engine import SweepCell, SweepEngine, SweepStats, use_engine
from repro.experiments.settings import (
    PAPER_COMBOS,
    PLOT_COMBOS,
    default_config,
    default_seeds,
)
from repro.experiments.runner import (
    make_selection_policies,
    make_trading_policy,
    run_combo,
    run_many,
    run_offline,
)

__all__ = [
    "PAPER_COMBOS",
    "PLOT_COMBOS",
    "ResultCache",
    "SweepCell",
    "SweepEngine",
    "SweepStats",
    "cell_key",
    "default_config",
    "default_seeds",
    "make_selection_policies",
    "make_trading_policy",
    "run_combo",
    "run_many",
    "run_offline",
    "scenario_fingerprint",
    "use_engine",
]
