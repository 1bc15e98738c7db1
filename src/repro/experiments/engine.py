"""The seed-sweep engine behind every figure experiment.

A figure experiment is a sweep: many independent ``(selection, trading,
seed)`` cells simulated on a shared scenario and averaged.  The cells share
no state — each run derives all of its randomness from its own seed — so
:class:`SweepEngine` runs them either in a serial loop or over one
``ProcessPoolExecutor``, and either way the results come back in cell order
and are bit-identical, whether a cell was simulated or loaded from the
on-disk :class:`~repro.experiments.cache.ResultCache`.

``workers=1`` (the default) never constructs a pool.  With ``workers > 1``
each pool worker receives the scenario once, through the executor's
initializer, and each task carries only its small :class:`SweepCell`.

The engine stores every cell in the cache the moment it finishes.  A
failure stops the sweep with its exception (a pool worker that dies raises
``BrokenProcessPool``); the cells that finished before it are already
cached, so the next cached run loads them and executes only the rest.

A :class:`~repro.faults.plan.FaultPlan` attached to the engine runs every
cell under deterministic fault injection.  The plan folds into each cell's
cache key, so faulted and clean results never collide.

``runner.run_many`` and ``runner.run_offline_many``, and with them every
figure experiment, run through the engine of the innermost
:func:`use_engine` block; outside one they run serially and uncached.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.experiments.cache import ResultCache, cell_key
from repro.faults.plan import FaultPlan
from repro.policies import selection_names, trading_names
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

__all__ = [
    "SweepCell",
    "SweepEngine",
    "SweepStats",
    "active_engine",
    "use_engine",
]

#: Cell kinds the engine knows how to execute.
_CELL_KINDS = ("combo", "offline")


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a (selection, trading, seed) combination.

    ``kind`` selects the execution shape: ``"combo"`` is one registry-named
    simulation, ``"offline"`` the two-pass clairvoyant reference (whose
    selection/trading names are fixed placeholders, not registry lookups).
    ``label_delay`` and ``live_inference`` carry the run-spec options that
    change a combo cell's numbers (and therefore its cache key).
    """

    selection: str
    trading: str
    seed: int
    label: str | None = None
    kind: str = "combo"
    label_delay: int = 0
    live_inference: bool = False

    @classmethod
    def from_spec(cls, spec: RunSpec) -> "SweepCell":
        """The cell that executes ``spec`` (see :meth:`SweepEngine.run_specs`).

        Scenario, faults, and tracing are engine-level concerns: the
        scenario is the sweep's shared argument, faults attach to the
        engine (folding into every key), and tracing runs don't belong in a
        cache-keyed sweep — so specs carrying a non-empty fault plan or a
        trace output are rejected here.
        """
        if not spec.faults.is_empty:
            raise ValueError(
                "sweep cells take fault plans from the engine "
                "(SweepEngine(faults=...)), not from individual specs"
            )
        if spec.trace_output is not None:
            raise ValueError(
                "tracing runs don't go through the sweep engine; run the "
                "spec directly via repro.run or Simulator.from_spec"
            )
        return cls(
            selection=spec.selection,
            trading=spec.trading,
            seed=int(spec.seed),
            label=spec.label,
            label_delay=int(spec.label_delay),
            live_inference=bool(spec.live_inference),
        )

    def to_spec(self, faults: FaultPlan | None = None) -> RunSpec:
        """The :class:`RunSpec` a worker executes for this (combo) cell."""
        return RunSpec(
            selection=self.selection,
            trading=self.trading,
            seed=self.seed,
            label=self.label,
            label_delay=self.label_delay,
            live_inference=self.live_inference,
            faults=faults if faults is not None else FaultPlan(),
        )


@dataclass
class SweepStats:
    """Tally of how an engine's cells were satisfied (cumulative)."""

    cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_stores: int = 0


def _execute_cell(
    scenario: Scenario, cell: SweepCell, faults: FaultPlan | None
) -> SimulationResult:
    """Run one cell on ``scenario``."""
    from repro.experiments.runner import run_offline  # runner imports this module

    if cell.kind == "offline":
        return run_offline(scenario, cell.seed, faults=faults)
    return Simulator.from_spec(scenario, cell.to_spec(faults)).run()


#: What a pool worker executes against, set once per process by
#: :func:`_init_worker`: the sweep's scenario and the engine's fault plan.
_WORKER_ARGS: tuple[Scenario, FaultPlan | None] | None = None


def _init_worker(scenario: Scenario, faults: FaultPlan | None) -> None:
    """Pool initializer: keep the sweep's shared arguments in this worker."""
    global _WORKER_ARGS
    _WORKER_ARGS = (scenario, faults)


def _execute_in_worker(cell: SweepCell) -> SimulationResult:
    """Run one cell in a pool worker, on the scenario its initializer set."""
    assert _WORKER_ARGS is not None, "pool worker was not initialized"
    scenario, faults = _WORKER_ARGS
    return _execute_cell(scenario, cell, faults)


class SweepEngine:
    """Executes sweep cells, optionally in parallel and through a cache.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs every cell in-process with no pool;
        ``N > 1`` fans cells out over a ``ProcessPoolExecutor``.  Either
        way, results are returned in cell order and are bit-identical.
    cache:
        Optional :class:`~repro.experiments.cache.ResultCache`.  Cells whose
        key is present (and intact) are loaded instead of simulated; misses
        are simulated and stored the moment they complete.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` applied to every cell
        (folded into cache keys when non-empty).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        *,
        faults: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache = cache
        self.faults = faults
        self.stats = SweepStats()

    def run_cells(
        self, scenario: Scenario, cells: Sequence[SweepCell]
    ) -> list[SimulationResult]:
        """Simulate (or load) every cell; results align with ``cells``."""
        cells = list(cells)
        if not cells:
            return []
        self._validate(cells)
        self.stats.cells += len(cells)
        results: list[SimulationResult | None] = [None] * len(cells)
        keys: list[str] = []
        if self.cache is not None:
            keys = [self._key(scenario, cell) for cell in cells]
            results = [self.cache.load(key) for key in keys]
            self.stats.cache_hits += sum(result is not None for result in results)
        pending = [index for index, result in enumerate(results) if result is None]
        for index, result in self._execute(scenario, cells, pending):
            results[index] = result
            self.stats.executed += 1
            if self.cache is not None:
                self.cache.store(keys[index], result)
                self.stats.cache_stores += 1
        return results  # type: ignore[return-value]  # every slot is filled

    def _key(self, scenario: Scenario, cell: SweepCell) -> str:
        """The cache key of ``cell`` under this engine's fault plan."""
        return cell_key(
            scenario,
            cell.selection,
            cell.trading,
            cell.seed,
            cell.label,
            kind=cell.kind,
            faults=self.faults,
            label_delay=cell.label_delay,
            live_inference=cell.live_inference,
        )

    def _execute(
        self, scenario: Scenario, cells: Sequence[SweepCell], pending: list[int]
    ) -> Iterator[tuple[int, SimulationResult]]:
        """Yield ``(index, result)`` for each pending cell as it finishes.

        Serially the order is ``pending``; over the pool it is completion
        order, so every finished cell reaches the cache even if a later one
        breaks the pool.
        """
        if not pending:
            return
        if self.workers == 1:
            for index in pending:
                yield index, _execute_cell(scenario, cells[index], self.faults)
            return
        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            initializer=_init_worker,
            initargs=(scenario, self.faults),
        )
        try:
            futures = {
                pool.submit(_execute_in_worker, cells[index]): index
                for index in pending
            }
            for future in as_completed(futures):
                yield futures[future], future.result()
        finally:
            # On a failure, queued cells are dropped rather than run.
            pool.shutdown(cancel_futures=True)

    def run_specs(
        self, scenario: Scenario, specs: Sequence[RunSpec]
    ) -> list[SimulationResult]:
        """Simulate one cell per :class:`RunSpec`; results align with ``specs``.

        The canonical sweep entry point: any mix of combinations, seeds,
        labels, and per-spec ``label_delay`` / ``live_inference`` options,
        sharing one pre-built ``scenario`` (each spec's own ``scenario``
        field is ignored, as everywhere a scenario is passed explicitly).
        Specs carrying fault plans or trace outputs are rejected — faults
        attach to the engine, tracing runs don't sweep.
        """
        if not specs:
            raise ValueError("need at least one run spec")
        cells = [SweepCell.from_spec(spec) for spec in specs]
        return self.run_cells(scenario, cells)

    def run_offline_many(
        self, scenario: Scenario, seeds: Sequence[int]
    ) -> list[SimulationResult]:
        """The two-pass "Offline" reference once per seed, as sweep cells."""
        if not seeds:
            raise ValueError("need at least one seed")
        cells = [
            SweepCell("Offline", "Offline", int(s), label="Offline", kind="offline")
            for s in seeds
        ]
        return self.run_cells(scenario, cells)

    def _validate(self, cells: Sequence[SweepCell]) -> None:
        """Reject unknown policy names/kinds before any fork/simulation."""
        known_selection = set(selection_names())
        known_trading = set(trading_names())
        for cell in cells:
            if cell.kind not in _CELL_KINDS:
                raise ValueError(
                    f"unknown cell kind {cell.kind!r}; expected one of "
                    f"{_CELL_KINDS}"
                )
            if cell.kind != "combo":
                continue  # non-combo kinds carry placeholder policy names
            if cell.selection not in known_selection:
                raise ValueError(
                    f"unknown selection policy {cell.selection!r}; expected "
                    f"one of {tuple(sorted(known_selection))}"
                )
            if cell.trading not in known_trading:
                raise ValueError(
                    f"unknown trading policy {cell.trading!r}; expected one "
                    f"of {tuple(sorted(known_trading))}"
                )


#: The engine of the innermost :func:`use_engine` block, ``None`` outside one.
_ACTIVE: SweepEngine | None = None


@contextmanager
def use_engine(engine: SweepEngine) -> Iterator[SweepEngine]:
    """Run every sweep inside the ``with`` block through ``engine``."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, engine
    try:
        yield engine
    finally:
        _ACTIVE = previous


def active_engine() -> SweepEngine:
    """The innermost :func:`use_engine` engine, else a serial, uncached one."""
    return _ACTIVE if _ACTIVE is not None else SweepEngine()
