"""The determinism seam of the serve tier: building one run's kernels.

Every process that takes part in a serve run — the parent that owns the
trading loop and each worker that steps a shard of edges — calls
:func:`build_serve_kernels` with the same :class:`ServeConfig` and so holds
bit-identical kernels.  The kernels and the per-slot fold
(:class:`~repro.sim.kernel.SlotAggregator`) are the simulator's own
(``Simulator.build_kernels``), which is why a virtual-clock serve run is
bit-identical to ``Simulator.run``.  :func:`make_feed` reads a set of
edges' adapters as count columns, under the ingress tier when the config
mounts it.  The runtime that drives them is
:class:`~repro.serve.shard.ShardRuntime`.
"""

from __future__ import annotations

from typing import Sequence

from repro.faults.plan import FaultPlan
from repro.obs.tracer import Tracer
from repro.serve.adapters import ColumnFeed, StreamAdapter, make_adapters
from repro.serve.config import ServeConfig
from repro.serve.load import make_load_grid
from repro.sim.kernel import EdgeSlotKernel, SlotAggregator, TradingSlotKernel
from repro.sim.scenario import Scenario, build_scenario
from repro.sim.simulator import Simulator
from repro.spec import RunSpec

__all__ = [
    "SlotAggregator",
    "build_serve_kernels",
    "make_feed",
]


def build_serve_kernels(
    config: ServeConfig,
    *,
    tracer: Tracer | None = None,
    faults: FaultPlan | None = None,
) -> tuple[Scenario, list[StreamAdapter], list[EdgeSlotKernel], TradingSlotKernel]:
    """Materialize one serve run's scenario, adapters, and slot kernels.

    Kernels and RNG streams are a pure function of the config (streams are
    keyed by *name*, not creation order), so any process that calls this
    with an equal config holds bit-identical kernels.  A worker steps only
    its own edges; the untouched rest cost nothing because streams draw
    lazily.
    """
    scenario = build_scenario(config.scenario)
    spec = RunSpec(
        selection=config.selection,
        trading=config.trading,
        seed=config.seed,
        label=config.effective_label,
        label_delay=config.label_delay,
        faults=faults if faults is not None else FaultPlan(),
    )
    sim = Simulator.from_spec(scenario, spec, tracer=tracer)
    arrivals, edge_kernels, trading_kernel = sim.build_kernels()
    load_counts = None
    if config.adapter == "shape":
        load_counts = make_load_grid(
            config.shape,
            horizon=scenario.horizon,
            num_edges=scenario.num_edges,
            total_events=config.shape_total_events,
            seed=config.shape_seed,
        )
    adapters = make_adapters(
        config.adapter,
        scenario,
        arrivals,
        replay_log=config.replay_log,
        load_counts=load_counts,
    )
    return scenario, adapters, edge_kernels, trading_kernel


def make_feed(
    config: ServeConfig,
    scenario: Scenario,
    adapters: Sequence[StreamAdapter],
    edges: Sequence[int],
    *,
    tracer: Tracer | None = None,
) -> ColumnFeed:
    """The columnar feed of ``edges``, under the ingress tier when configured.

    A shard worker reads its edges' arrivals through one; the parent reads
    the edges a reconfiguration took out of the fleet through another.
    """
    chosen = {e: adapters[e] for e in edges}
    ingress = config.ingress_config()
    if ingress is None:
        return ColumnFeed(chosen)
    # Lazy import: repro.ingress eagerly imports repro.serve submodules,
    # and repro.serve.__init__ imports this module.
    from repro.ingress.adapter import IngressAdapter

    return IngressAdapter(
        chosen,
        config=ingress,
        seed=config.seed,
        horizon=scenario.horizon,
        prices=scenario.prices.buy,
        tracer=tracer,
    )
