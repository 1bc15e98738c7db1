"""The time-slotted cloud-edge simulator (paper Fig. 2 workflow).

Per slot ``t`` the simulator executes, for every edge:

1. the selection policy picks a model (a download/switch occurs if it
   differs from the previous slot's model);
2. ``M_i^t`` samples arrive (Poisson around the workload trace) and are
   realized as indices into the held-out data pool;
3. the edge "runs" inference — per-sample losses are looked up from the
   model's memoized forward-pass table (bit-identical to a live forward
   pass; optionally recomputed live for validation) — and the average slot
   loss plus computation cost is fed back to the policy (bandit feedback);

and then, once slot emissions are known at the system level:

4. the trading policy decides allowance purchases/sales from information up
   to the current slot, the market executes them, and realized emissions are
   revealed to the policy for its dual/queue update.

Arrivals and sample draws use dedicated named RNG streams that do not depend
on the policies, so different policies face *identical* workloads and data
(common random numbers) — exactly how the paper compares combinations.

The per-edge and trading step bodies live in :mod:`repro.sim.kernel` as
stateful slot kernels shared with the :mod:`repro.serve` runtime, and so
does the per-slot outcome fold (:class:`~repro.sim.kernel.SlotAggregator`);
the simulator is the lockstep driver of those kernels.
"""

from __future__ import annotations

from repro.data.streams import ArrivalProcess
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.market.ledger import AllowanceLedger
from repro.market.market import CarbonMarket
from repro.obs.events import SlotStartEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.selection import SelectionPolicy
from repro.policies.trading import TradingPolicy
from repro.sim.kernel import (
    EdgeSlotKernel,
    SlotAggregator,
    TradingSlotKernel,
    class_index_map,
)
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario
from repro.utils.rng import RngFactory

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.spec import RunSpec

__all__ = ["Simulator"]


class Simulator:
    """Runs one (selection policies, trading policy) combination.

    Everything after the three structural arguments is keyword-only; pass a
    :class:`~repro.obs.tracer.Tracer` to stream structured per-slot events
    (the default no-op tracer keeps the hot path uninstrumented in effect).
    For name-based construction see :meth:`from_spec`.
    """

    def __init__(
        self,
        scenario: Scenario,
        selection_policies: list[SelectionPolicy],
        trading_policy: TradingPolicy,
        *,
        run_seed: int = 0,
        label: str = "run",
        live_inference: bool = False,
        label_delay: int = 0,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if len(selection_policies) != scenario.num_edges:
            raise ValueError(
                f"need one selection policy per edge: got {len(selection_policies)}, "
                f"expected {scenario.num_edges}"
            )
        for policy in selection_policies:
            if policy.num_models != scenario.num_models:
                raise ValueError(
                    f"policy {policy!r} expects {policy.num_models} models, "
                    f"scenario has {scenario.num_models}"
                )
        if label_delay < 0:
            raise ValueError(f"label_delay must be non-negative, got {label_delay}")
        self.scenario = scenario
        self.selection_policies = list(selection_policies)
        self.trading_policy = trading_policy
        self.label = label
        self.live_inference = live_inference
        self.label_delay = label_delay
        self.faults = faults if faults is not None else FaultPlan()
        self._rng = RngFactory(run_seed).child("simulator")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            for i, policy in enumerate(self.selection_policies):
                policy.bind_tracer(tracer, edge=i)
            trading_policy.bind_tracer(tracer)

    @classmethod
    def from_spec(
        cls,
        scenario: Scenario,
        spec: "RunSpec",
        *,
        tracer: Tracer | None = None,
    ) -> "Simulator":
        """Build a simulator for ``spec`` on an already-built ``scenario``.

        This is the constructor behind every name-based entry point
        (``repro.run``, ``run_combo``, the sweep engine, the CLI).  Policy
        names resolve through the :mod:`repro.policies` registry, and the
        RNG stream layout is a pure function of
        ``(selection, trading, seed)``, so a given spec is bit-identical
        everywhere it runs.  ``scenario`` is taken pre-built so callers can
        share one across specs for common-random-number comparisons; pass
        ``spec.build_scenario()`` when no sharing is needed.  ``tracer``
        overrides the spec's ``trace_output``/``trace_edge`` options.
        """
        from repro.policies import make_selection_policies, make_trading_policy

        selection, trading = spec.selection, spec.trading
        rng_factory = RngFactory(spec.seed).child(f"{selection}-{trading}")
        policies = make_selection_policies(selection, scenario, rng_factory)
        trader = make_trading_policy(trading, scenario, rng_factory)
        if tracer is None:
            tracer = spec.make_tracer()
        return cls(
            scenario,
            policies,
            trader,
            run_seed=spec.seed,
            label=spec.resolved_label,
            live_inference=spec.live_inference,
            label_delay=spec.label_delay,
            tracer=tracer,
            faults=spec.faults if not spec.faults.is_empty else None,
        )

    def build_kernels(
        self,
    ) -> tuple[list[ArrivalProcess], list[EdgeSlotKernel], TradingSlotKernel]:
        """Materialize the slot kernels this run drives.

        The RNG stream layout (``arrivals-i``, ``data-i``, ``faults``) and
        construction order are part of the determinism contract: the serve
        runtime calls this too, which is what makes its virtual-clock mode
        bit-identical to :meth:`run`.
        """
        scenario = self.scenario
        num_edges = scenario.num_edges
        arrival_processes = [
            ArrivalProcess(scenario.workload_means[i], self._rng.get(f"arrivals-{i}"))
            for i in range(num_edges)
        ]
        data_rngs = [self._rng.get(f"data-{i}") for i in range(num_edges)]
        class_indices = class_index_map(scenario)

        tracer = self.tracer
        market = CarbonMarket(scenario.prices, tracer=tracer)
        ledger = AllowanceLedger(scenario.config.carbon_cap_kg, tracer=tracer)

        # Fault injection: realized up-front from a dedicated RNG child, so
        # an empty plan leaves every workload/policy stream bit-identical.
        injector: FaultInjector | None = None
        if not self.faults.is_empty:
            injector = FaultInjector(
                self.faults,
                horizon=scenario.horizon,
                num_edges=num_edges,
                rng=self._rng.child("faults"),
            )

        edge_kernels = [
            EdgeSlotKernel(
                scenario,
                self.selection_policies[i],
                i,
                data_rng=data_rngs[i],
                class_indices=class_indices,
                injector=injector,
                tracer=tracer,
                label_delay=self.label_delay,
                live_inference=self.live_inference,
            )
            for i in range(num_edges)
        ]
        trading_kernel = TradingSlotKernel(
            scenario,
            self.trading_policy,
            market,
            ledger,
            injector=injector,
            tracer=tracer,
        )
        return arrival_processes, edge_kernels, trading_kernel

    def run(self, *, vectorized: bool | None = None) -> SimulationResult:
        """Simulate the full horizon and return per-slot records.

        ``vectorized=None`` (the default) picks the vectorized fast path
        whenever the run qualifies (no tracing, no delayed labels, and a
        fault plan only on a fleet of plain Algorithm-1 policies) and the
        scalar reference loop otherwise — the two are bit-identical, locked
        by the golden digests.  Pass ``False`` to force the scalar loop (the
        reference for equivalence tests and benchmarks) or ``True`` to
        require the fast path (raises if the run does not qualify).
        """
        from repro.sim.vector import can_vectorize, run_vectorized

        if vectorized is None:
            vectorized = can_vectorize(self)
        elif vectorized and not can_vectorize(self):
            raise ValueError(
                "run cannot use the vectorized fast path: tracing or label "
                "delay is enabled, or a fault plan runs on a fleet that is "
                "not plain Algorithm 1"
            )
        if vectorized:
            return run_vectorized(self)
        return self._run_scalar()

    def _run_scalar(self) -> SimulationResult:
        """The scalar reference loop: one kernel step per edge per slot."""
        horizon = self.scenario.horizon
        arrival_processes, edge_kernels, trading_kernel = self.build_kernels()
        folder = SlotAggregator(self.scenario, trading_kernel)
        edges = list(zip(arrival_processes, edge_kernels))
        tracer = self.tracer
        tracing = tracer.enabled
        delay = self.label_delay

        for t in range(horizon):
            if tracing:
                tracer.emit(SlotStartEvent(t=t, horizon=horizon))
            folder.fold(
                t, [kernel.step(t, process.sample(t)) for process, kernel in edges]
            )
            if delay > 0:
                for kernel in edge_kernels:
                    kernel.deliver_due(t - delay)

        if delay > 0:
            # Labels still in flight at the end of the horizon arrive after
            # it; deliver them so every policy's accounting completes.
            for kernel in edge_kernels:
                kernel.deliver_due(horizon)

        return folder.result(self.label)
