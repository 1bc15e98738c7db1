"""The parallel seed-sweep engine behind every figure experiment.

A figure experiment is a sweep: many independent ``(selection, trading,
seed)`` cells simulated on a shared scenario and averaged.  The cells share
no state — each run derives all of its randomness from its own seed — so
they parallelize perfectly, and :class:`SweepEngine` fans them out over a
``ProcessPoolExecutor`` while preserving the *strongest* determinism
contract the simulator supports: results come back in cell order and are
bit-identical to a serial run, regardless of worker count, completion
order, or whether a cell was served from the on-disk
:class:`~repro.experiments.cache.ResultCache`.

``workers=1`` (the default) never constructs a pool: cells execute
in-process, serially, exactly as the pre-engine ``run_many`` did.

The engine is also the resilience layer of the experiment harness:

* a crashed pool worker (``BrokenProcessPool``) retries the lost cells on
  a fresh pool with exponential backoff, and cells that keep failing —
  or pools that keep breaking — fall back to in-process execution, so a
  sweep completes (bit-identically) rather than aborting;
* ``cell_timeout`` bounds how long the engine waits without *any* cell
  completing before declaring the pool hung and recovering the same way;
* a :class:`~repro.experiments.checkpoint.SweepCheckpoint` journals each
  completed cell durably, so a killed ``run_all`` resumes executing only
  the remaining cells;
* a :class:`~repro.faults.plan.FaultPlan` attached to the engine runs every
  cell under deterministic fault injection (keys fold the plan in, so
  faulted and clean results never collide in the cache).

The module-level *default engine* is what ``repro.experiments.runner.
run_many`` routes through when no engine is passed explicitly, so the CLI
(``repro experiment --workers N --cache DIR``) can reconfigure every figure
experiment at once via :func:`use_engine` without touching their signatures.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.experiments.cache import ResultCache, cell_key
from repro.experiments.checkpoint import SweepCheckpoint
from repro.policies import selection_names, trading_names
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario
from repro.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenario_pool import ScenarioPool
    from repro.faults.plan import FaultPlan

__all__ = [
    "SweepCell",
    "SweepEngine",
    "SweepStats",
    "get_default_engine",
    "set_default_engine",
    "use_engine",
]

#: Cell kinds the engine knows how to execute.
_CELL_KINDS = ("combo", "offline")

#: Env hooks used by the resilience tests to make a pool worker crash or
#: hang on a specific cell, exactly once (a marker file arms each hook).
#: Format: ``"<seed>:<marker path>"``; active only inside pool workers.
_TEST_CRASH_ENV = "REPRO_ENGINE_TEST_CRASH"
_TEST_HANG_ENV = "REPRO_ENGINE_TEST_HANG"


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

    def to_spec(self, faults: "FaultPlan | None" = None) -> RunSpec:
        """The :class:`RunSpec` a worker executes for this (combo) cell."""
        from repro.faults.plan import FaultPlan

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
    checkpoint_hits: int = 0
    retries: int = 0
    pool_failures: int = 0
    fallback_cells: int = 0

    def add(self, other: "SweepStats") -> None:
        """Fold another tally into this one."""
        self.cells += other.cells
        self.executed += other.executed
        self.cache_hits += other.cache_hits
        self.cache_stores += other.cache_stores
        self.checkpoint_hits += other.checkpoint_hits
        self.retries += other.retries
        self.pool_failures += other.pool_failures
        self.fallback_cells += other.fallback_cells


def _maybe_fire_test_hooks(cell: SweepCell) -> None:
    """Crash/hang this worker if a test hook targets ``cell`` (once).

    Hooks only fire inside pool workers (``multiprocessing.parent_process``
    is ``None`` in the main process), so in-process retries and fallbacks
    always succeed — which is exactly the behavior under test.
    """
    import multiprocessing
    from pathlib import Path

    if multiprocessing.parent_process() is None:
        return
    crash = os.environ.get(_TEST_CRASH_ENV, "")
    if crash:
        seed_text, _, marker = crash.partition(":")
        path = Path(marker)
        if cell.seed == int(seed_text) and not path.exists():
            path.write_text("crashed", encoding="utf-8")
            os._exit(1)
    hang = os.environ.get(_TEST_HANG_ENV, "")
    if hang:
        seed_text, _, marker = hang.partition(":")
        path = Path(marker)
        if cell.seed == int(seed_text) and not path.exists():
            path.write_text("hung", encoding="utf-8")
            time.sleep(30.0)


def _execute_cell(
    scenario: Scenario, cell: SweepCell, faults: "FaultPlan | None" = None
) -> SimulationResult:
    """Run one cell (module-level so worker processes can unpickle it)."""
    from repro.experiments.runner import run_offline
    from repro.sim.simulator import Simulator

    _maybe_fire_test_hooks(cell)
    if cell.kind == "offline":
        return run_offline(scenario, cell.seed, faults=faults)
    return Simulator.from_spec(scenario, cell.to_spec(faults)).run()


def _execute_cell_ref(
    ref, cell: SweepCell, faults: "FaultPlan | None" = None
) -> SimulationResult:
    """Ref-based variant for pooled scenarios: resolve, then execute.

    The worker receives a :class:`~repro.experiments.scenario_pool.
    ScenarioRef` (a digest and a path — bytes, not megabytes) and loads
    the scenario at most once per process via the pool's resolve memo.
    """
    from repro.experiments.scenario_pool import resolve

    return _execute_cell(resolve(ref), cell, faults)


class _PoolRoundFailed(Exception):
    """Internal: the current pool broke or stalled; survivors retry."""


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
        (folded into cache/checkpoint keys when non-empty).
    checkpoint:
        Optional :class:`~repro.experiments.checkpoint.SweepCheckpoint`.
        Completed cells are journaled durably; on the next run, journaled
        cells load instead of executing (resume-after-kill).
    cell_timeout:
        Seconds the pool may go without *any* cell completing before the
        engine declares it hung and recovers (``None`` waits forever).
    max_retries:
        Pool attempts per cell before it falls back to in-process
        execution.
    pool_failure_limit:
        Broken/hung pools tolerated before the whole remainder of the
        sweep falls back to in-process execution.
    scenario_pool:
        Optional :class:`~repro.experiments.scenario_pool.ScenarioPool`.
        When set, pool submissions ship a content-addressed
        :class:`~repro.experiments.scenario_pool.ScenarioRef` instead of
        pickling the materialized scenario into every task, and workers
        resolve (and memoize) each distinct scenario once per process —
        the cross-figure sharing seam ``run_all`` mounts for the whole
        invocation.  Serial and fallback cells use the live scenario
        object directly; results are bit-identical either way.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        *,
        faults: "FaultPlan | None" = None,
        checkpoint: SweepCheckpoint | None = None,
        cell_timeout: float | None = None,
        max_retries: int = 2,
        pool_failure_limit: int = 3,
        scenario_pool: "ScenarioPool | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if pool_failure_limit < 1:
            raise ValueError(
                f"pool_failure_limit must be >= 1, got {pool_failure_limit}"
            )
        self.workers = int(workers)
        self.cache = cache
        self.faults = faults
        self.checkpoint = checkpoint
        self.cell_timeout = cell_timeout
        self.max_retries = int(max_retries)
        self.pool_failure_limit = int(pool_failure_limit)
        self.scenario_pool = scenario_pool
        self.stats = SweepStats()

    def run_cells(
        self, scenario: Scenario, cells: Sequence[SweepCell]
    ) -> list[SimulationResult]:
        """Simulate (or load) every cell; results align with ``cells``."""
        cells = list(cells)
        if not cells:
            return []
        self._validate(cells)
        batch = SweepStats(cells=len(cells))
        results: list[SimulationResult | None] = [None] * len(cells)

        pending: list[int] = []
        keys: dict[int, str] = {}
        if self.cache is not None or self.checkpoint is not None:
            for index, cell in enumerate(cells):
                keys[index] = cell_key(
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
        for index, cell in enumerate(cells):
            if self.checkpoint is not None:
                checkpointed = self.checkpoint.load(keys[index])
                if checkpointed is not None:
                    results[index] = checkpointed
                    batch.checkpoint_hits += 1
                    continue
            if self.cache is not None:
                cached = self.cache.load(keys[index])
                if cached is not None:
                    results[index] = cached
                    batch.cache_hits += 1
                    self._commit(keys.get(index), cached, batch, store=False)
                    continue
            pending.append(index)

        def commit(index: int) -> None:
            result = results[index]
            assert result is not None  # filled by the executing branch
            self._commit(keys.get(index), result, batch)

        if pending:
            if self.workers == 1:
                for index in pending:
                    results[index] = _execute_cell(
                        scenario, cells[index], self.faults
                    )
                    commit(index)
            else:
                self._run_pool(scenario, cells, pending, results, commit, batch)
            batch.executed += len(pending)

        self.stats.add(batch)
        return [result for result in results if result is not None]

    def _commit(
        self,
        key: str | None,
        result: SimulationResult,
        batch: SweepStats,
        store: bool = True,
    ) -> None:
        """Persist one completed cell to the cache and the checkpoint."""
        if key is None:
            return
        if store and self.cache is not None:
            self.cache.store(key, result)
            batch.cache_stores += 1
        if self.checkpoint is not None and key not in self.checkpoint:
            self.checkpoint.append(key, result)

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

    def _run_pool(
        self,
        scenario: Scenario,
        cells: Sequence[SweepCell],
        pending: Sequence[int],
        results: list[SimulationResult | None],
        commit,
        batch: SweepStats,
    ) -> None:
        """Fan pending cells over process pools, retrying around failures.

        Each round uses a fresh pool (a broken pool cannot be reused).  A
        round that breaks or stalls increments ``pool_failures``; its lost
        cells retry on the next round until ``max_retries``, after which —
        or once ``pool_failure_limit`` rounds have failed — the remainder
        executes in-process, which cannot crash the sweep.
        """
        remaining = list(pending)
        attempts = {index: 0 for index in remaining}
        while remaining:
            if batch.pool_failures >= self.pool_failure_limit:
                for index in remaining:
                    self._run_in_process(scenario, cells, index, results, commit)
                    batch.fallback_cells += 1
                return
            failed = self._pool_round(scenario, cells, remaining, results, commit)
            if not failed:
                return
            batch.pool_failures += 1
            retry: list[int] = []
            for index in failed:
                attempts[index] += 1
                if attempts[index] > self.max_retries:
                    self._run_in_process(scenario, cells, index, results, commit)
                    batch.fallback_cells += 1
                else:
                    retry.append(index)
            batch.retries += len(retry)
            remaining = retry
            if remaining:
                # Exponential backoff before rebuilding the pool: transient
                # resource exhaustion (OOM kills, fork storms) needs air.
                time.sleep(min(0.05 * 2 ** (batch.pool_failures - 1), 1.0))

    def _run_in_process(
        self,
        scenario: Scenario,
        cells: Sequence[SweepCell],
        index: int,
        results: list[SimulationResult | None],
        commit,
    ) -> None:
        """Execute one cell in the main process (the no-pool fallback)."""
        results[index] = _execute_cell(scenario, cells[index], self.faults)
        commit(index)

    def _pool_round(
        self,
        scenario: Scenario,
        cells: Sequence[SweepCell],
        pending: Sequence[int],
        results: list[SimulationResult | None],
        commit,
    ) -> list[int]:
        """One pool lifetime; returns the indexes lost to a break/stall.

        Completed cells are committed as they land, so a failure mid-round
        never discards finished work — only unfinished cells return for
        retry.
        """
        max_workers = min(self.workers, len(pending))
        if self.scenario_pool is not None:
            execute, payload = _execute_cell_ref, self.scenario_pool.share(scenario)
        else:
            execute, payload = _execute_cell, scenario
        pool = ProcessPoolExecutor(max_workers=max_workers)
        try:
            futures = {
                pool.submit(execute, payload, cells[index], self.faults): index
                for index in pending
            }
            remaining = set(futures)
            while remaining:
                done, not_done = wait(
                    remaining,
                    timeout=self.cell_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # No cell finished within cell_timeout: the pool is
                    # stalled (hung worker, wedged fork).  Abandon it.
                    raise _PoolRoundFailed
                for future in done:
                    index = futures[future]
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool as exc:
                        raise _PoolRoundFailed from exc
                    commit(index)
                remaining = not_done
        except _PoolRoundFailed:
            self._abandon_pool(pool)
            return [index for index in pending if results[index] is None]
        pool.shutdown()
        return []

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Shut down a broken/stalled pool without waiting on its workers."""
        processes = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cache = "on" if self.cache is not None else "off"
        checkpoint = "on" if self.checkpoint is not None else "off"
        faults = "on" if self.faults is not None and not self.faults.is_empty else "off"
        return (
            f"SweepEngine(workers={self.workers}, cache={cache}, "
            f"checkpoint={checkpoint}, faults={faults})"
        )


#: Engine used by ``run_many`` when none is passed: serial, uncached —
#: exactly the pre-engine behavior.
_DEFAULT_ENGINE = SweepEngine()


def get_default_engine() -> SweepEngine:
    """The engine ``run_many`` uses when no explicit engine is given."""
    return _DEFAULT_ENGINE


def set_default_engine(engine: SweepEngine) -> SweepEngine:
    """Replace the default engine; returns the previous one."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine
    return previous


@contextmanager
def use_engine(engine: SweepEngine) -> Iterator[SweepEngine]:
    """Scope ``engine`` as the default for the duration of a ``with`` block."""
    previous = set_default_engine(engine)
    try:
        yield engine
    finally:
        set_default_engine(previous)
