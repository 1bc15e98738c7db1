"""The benchmark's workloads: inputs built from a seed, one timed repetition
of each, and the checks that its outputs are correct.

Every workload runs the paper's ``Ours``/``Ours`` policies on the synthetic
scenario with 64 edges.  Sizes are chosen so that one repetition takes one
to three seconds on a 2-vCPU machine; the smoke sizes serve the warm-up
and the self-test.
"""

from __future__ import annotations

import functools
import gc
import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import (
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    MarketOutage,
    TradeRejection,
)
from repro.ingress.config import IngressConfig
from repro.obs.tracer import Tracer
from repro.serve.config import ServeConfig
from repro.serve.runtime import SlotAggregator
from repro.serve.shard import ShardRuntime
from repro.sim.config import ScenarioConfig
from repro.sim.io import result_digest
from repro.sim.kernel import TradingSlotKernel
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

__all__ = ["NUM_EDGES", "WORKLOADS", "Rep", "Stamps", "Workload"]

NUM_EDGES = 64
FLEET_SEED = 0


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Stamps:
    """Release and fold times of the slots of the repetition in progress.

    It is the ``EventSink`` the serve workloads hand their tracer (release
    is the ``slot_start`` event) and it wraps the method whose return folds
    a slot: ``SlotAggregator.fold`` in the serve tier, the trading step in
    the simulator, which releases every slot when its run starts.
    """

    def __init__(self) -> None:
        self.release: dict[int, float] = {}
        self.fold: dict[int, float] = {}
        self.folder = None

    def clear(self) -> None:
        self.release.clear()
        self.fold.clear()
        self.folder = None

    def write(self, event) -> None:
        if event.type == "slot_start":
            self.release[event.t] = time.perf_counter()

    def close(self) -> None:
        pass

    def hook(self, cls, name: str) -> None:
        """Stamp the return of ``cls.name(self, t, ...)`` as slot ``t``'s fold."""
        original = getattr(cls, name)
        stamps = self

        @functools.wraps(original)
        def wrapper(obj, t, *args, **kwargs):
            result = original(obj, t, *args, **kwargs)
            stamps.fold[t] = time.perf_counter()
            stamps.folder = obj
            return result

        setattr(cls, name, wrapper)

    def latencies(self, horizon: int) -> list[float]:
        return [self.fold[t] - self.release[t] for t in range(horizon)]


@dataclass
class Rep:
    """One timed repetition: setup, run, and what its outputs showed."""

    setup_s: float
    run_s: float
    cpu_s: float
    edge_slots: int
    events: int
    attempted: int
    failed: int
    latencies: list[float]
    digest: str
    obs_events: int
    errors: list[str]
    #: Layer snapshots of every process, when the repetition was traced.
    processes: list[dict]


def ledger_errors(result, trading_kernel) -> list[str]:
    """Exact identities between the result arrays, the ledger and the market."""
    ledger, market = trading_kernel.ledger, trading_kernel.market
    horizon = result.horizon
    errors = []
    if ledger.slots_recorded != horizon:
        errors.append(f"ledger recorded {ledger.slots_recorded} of {horizon} slots")
    if not np.array_equal(ledger.emissions_series(), result.emissions):
        errors.append("ledger emissions differ from the result's")
    if not np.array_equal(ledger.net_purchase_series(), result.bought - result.sold):
        errors.append("ledger net purchases differ from the result's")
    if len(market.trades) + ledger.rejected_trades != horizon:
        errors.append("executed plus rejected trades do not cover every slot")
    if market.total_cost() != sum(result.trading_cost.tolist()):
        errors.append("market cost differs from the result's trading cost")
    if ledger.violation_series()[-1] != result.final_fit():
        errors.append("ledger violation differs from the result's fit")
    arrays = (
        result.expected_inference_cost, result.compute_cost, result.emissions,
        result.bought, result.sold, result.trading_cost,
    )
    if not all(np.isfinite(a).all() for a in arrays):
        errors.append("non-finite cost, emission or trade values")
    return errors


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``kind`` is ``"sim"`` or ``"serve"``."""

    name: str
    kind: str
    horizon: int
    smoke_horizon: int
    faults: bool = False
    shape: str = ""
    events_per_edge_slot: float = 0.0
    ingress: bool = False
    restart: bool = False

    def size(self, smoke: bool) -> int:
        return self.smoke_horizon if smoke else self.horizon

    # -- inputs ----------------------------------------------------------

    def spec(self, seed: int, horizon: int) -> RunSpec:
        faults = FaultPlan()
        if self.faults:
            # The fault windows scale with the horizon (at H=1000: outage
            # on edge 0 over [250, 500), market down over [375, 625)).
            faults = FaultPlan(
                (
                    EdgeOutage(edge=0, start=horizon // 4, end=horizon // 2),
                    FeedbackLoss(probability=0.05),
                    DownloadFailure(probability=0.05),
                    MarketOutage(start=3 * horizon // 8, end=5 * horizon // 8),
                    TradeRejection(probability=0.05),
                )
            )
        return RunSpec(scenario=self._scenario(horizon), seed=seed, faults=faults)

    def config(self, seed: int, horizon: int, **overrides) -> ServeConfig:
        settings = dict(
            scenario=self._scenario(horizon),
            seed=seed,
            adapter="shape",
            shape=self.shape,
            shape_total_events=round(self.events_per_edge_slot * horizon * NUM_EDGES),
            shape_seed=seed,
            virtual_clock=False,
            backpressure="shed",
            queue_capacity=4096,
            num_workers=1,
            on_worker_death="restart" if self.restart else "fail",
            ingress=IngressConfig(slot_capacity=16).to_dict() if self.ingress else None,
        )
        settings.update(overrides)
        return ServeConfig(**settings)

    @staticmethod
    def _scenario(horizon: int) -> ScenarioConfig:
        # The fleet (topology, switch costs, prices, workload means) is
        # part of the workload and the same for every seed: it fixes the
        # Theorem-1 block schedules, whose length changes the number of
        # Tsallis solves by up to a third between fleets.  The seed drives
        # what arrives: arrivals, data draws, policy sampling, fault
        # realizations and the load shape's jitter.
        return ScenarioConfig(
            dataset="synthetic", num_edges=NUM_EDGES, horizon=horizon, seed=FLEET_SEED
        )

    # -- running ---------------------------------------------------------

    def install(self, stamps: Stamps) -> None:
        """Hook the fold point this workload's slot latency ends at."""
        if self.kind == "sim":
            stamps.hook(TradingSlotKernel, "step")
        else:
            stamps.hook(SlotAggregator, "fold")

    def setup(self, seed: int, horizon: int, stamps: Stamps):
        """What ``setup_s`` times: scenario and simulator, or the runtime."""
        if self.kind == "sim":
            spec = self.spec(seed, horizon)
            return Simulator.from_spec(spec.build_scenario(), spec)
        return ShardRuntime(self.config(seed, horizon), tracer=Tracer([stamps]))

    def rep(self, seed: int, horizon: int, stamps: Stamps, profiler=None) -> Rep:
        """Set up, run and check one repetition.

        With a profiler, its window is exactly the set-up and the run.
        Earlier repetitions' garbage is collected first, so each starts
        from a heap like a fresh process's.
        """
        gc.collect()
        if profiler is not None:
            profiler.reset()
        start = time.perf_counter()
        target = self.setup(seed, horizon, stamps)
        ready = time.perf_counter()
        stamps.clear()
        cpu = cpu_seconds()
        result = target.run()
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu
        processes = []
        if profiler is not None:
            processes = [profiler.snapshot(), *profiler.collect_workers()]
        edge_slots = horizon * NUM_EDGES
        if self.kind == "sim":
            stamps.release.update(dict.fromkeys(range(horizon), ready))
            events, attempted, failed = int(result.arrivals.sum()), edge_slots, 0
            errors = ledger_errors(result, stamps.folder)
            obs_events = 0
        else:
            events, attempted, failed, errors = self._serve_accounting(target, result)
            obs_events = sum(target.tracer.event_counts().values())
        return Rep(
            setup_s=ready - start, run_s=end - ready, cpu_s=cpu,
            edge_slots=edge_slots, events=events, attempted=attempted, failed=failed,
            latencies=stamps.latencies(horizon), digest=result_digest(result),
            obs_events=obs_events, errors=errors, processes=processes,
        )

    @staticmethod
    def _serve_accounting(runtime, result) -> tuple[int, int, int, list[str]]:
        """Served events, operations offered and failed, and broken identities."""
        counters = runtime.tracer.metrics_snapshot()["counters"]
        events_in = counters["serve/events_in"]
        served = counters["serve/events_served"]
        shed = counters["serve/events_shed"]
        offline = counters["serve/events_dropped_offline"]
        errors = ledger_errors(result, runtime.trading_kernel)
        if events_in != served + shed + offline:
            errors.append("events in != served + shed + dropped offline")
        if served != int(result.arrivals.sum()):
            errors.append("served events differ from the result's arrivals")
        stats = runtime.ingress
        if stats is None:
            offered, failed = events_in, shed + offline
        else:
            # A request shed or dropped offline is also a deadline miss.
            offered = stats.requests_in
            failed = stats.requests_dropped + stats.deadline_misses
            if not stats.accounting_ok(served, shed, offline):
                errors.append("requests in != served + shed + offline + dropped")
        total = runtime.config.shape_total_events
        if offered != total:
            errors.append(f"{offered} operations offered, the load shape has {total}")
        return served, offered, failed, errors

    def reference_digest(self, seed: int, horizon: int) -> str:
        """A second path that must give a bit-identical result.

        The scalar simulator loop for the vectorized workload; the lockstep
        virtual-clock schedule for the pipelined wall-clock serve runs.
        Faulted runs have only the scalar loop, so they have no reference.
        """
        if self.kind == "sim":
            if self.faults:
                return ""
            spec = self.spec(seed, horizon)
            sim = Simulator.from_spec(spec.build_scenario(), spec)
            return result_digest(sim.run(vectorized=False))
        config = self.config(seed, horizon, virtual_clock=True, backpressure="block")
        return result_digest(ShardRuntime(config).run())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-vectorized",
            kind="sim",
            horizon=2000,
            smoke_horizon=128,
        ),
        Workload(
            name="sim-faulted",
            kind="sim",
            horizon=1000,
            smoke_horizon=128,
            faults=True,
        ),
        Workload(
            name="serve-constant",
            kind="serve",
            horizon=500,
            smoke_horizon=64,
            shape="constant",
            events_per_edge_slot=3.125,
        ),
        Workload(
            name="serve-restart",
            kind="serve",
            horizon=500,
            smoke_horizon=64,
            shape="sawtooth",
            events_per_edge_slot=3.125,
            restart=True,
        ),
        Workload(
            name="serve-ingress-spike",
            kind="serve",
            horizon=500,
            smoke_horizon=64,
            shape="spike",
            events_per_edge_slot=15.625,
            ingress=True,
        ),
    )
}
