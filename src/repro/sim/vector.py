"""Vectorized fast path of :meth:`repro.sim.simulator.Simulator.run`.

The scalar reference loop executes ``horizon x num_edges`` full
:class:`~repro.sim.kernel.EdgeSlotKernel` steps — each one paying for an
outcome row, per-field float conversions, energy-model method dispatch,
and fault/tracer bookkeeping.  The fast path re-executes the *same
arithmetic in the same floating-point order* with that overhead stripped
out and the pure-array parts batched, so the result is **bit-identical**
to the scalar path (locked by the pinned golden digests and by
``tests/test_vectorized.py``).

Selection does not depend on trading, so the run is: draw every edge's
arrival counts for the horizon, step the whole horizon ``[0, H)`` as one
span of :class:`~repro.sim.kernel.ShardSlotKernel` — the columnar
Algorithm-1 engine the serve tier's workers run too — and fold the span's
one :class:`~repro.sim.kernel.SlotOutcomes` record once through the scalar
loop's own :class:`~repro.sim.kernel.SlotAggregator`, which steps the
(stateful, order-dependent) trading kernel once per slot.  Over a whole
horizon the engine's rounds of block openings are the block rounds: round
``k`` opens block ``k`` of every edge with one batched Tsallis solve, and
each block is gathered once and folded with one ``observe_block`` call.
Edge faults come from the injector's realized masks; market faults need
nothing here, because the trading kernel the fold steps holds the injector.

A clean fleet that is not all plain Algorithm 1 (the baselines, or a mixed
fleet) drives the policies' public per-slot interface instead, batching
the block openings of any plain Algorithm-1 members that coincide at a
slot.

Why digests are preserved (the full argument is in DESIGN.md):

* **RNG streams** — arrivals, pool draws, block sampling, and trading each
  live on their own named stream.  Drawing a whole horizon of Poisson
  counts or pool indices in one vectorized call consumes a stream exactly
  as the per-slot scalar calls do (NumPy ``Generator`` methods draw
  elementwise, in order); reordering *across* streams is free because the
  streams are independent.
* **Reductions** — each per-slot loss mean stays a pairwise reduction over
  the identical contiguous values (a contiguous slice of a block-level
  gather reduces exactly like the per-slot gather).  The cross-edge sums
  are the fold's, the same code and addition order as the scalar loop's.
* **Block folding** — an edge's estimator is only *read* when that edge
  opens its next block, which happens strictly after the previous block's
  last slot; folding a block's losses before that is unobservable, and
  ``observe_block`` accumulates them in the same left-to-right
  Python-float order as per-slot ``observe`` calls.
* **Energy arithmetic** — :meth:`EnergyModel.slot_emissions_kg_batch`
  preserves the scalar method's operation order element by element.
* **Tsallis solves** — a round's block openings are solved by
  :func:`~repro.core.tsallis.tsallis_inf_probabilities_batch`, whose rows
  follow the scalar safeguarded-Newton trajectory bitwise whatever else
  shares the batch.
* **Live inference** — forward passes stay per edge-slot on the slot's own
  index draw (exactly the kernel's call), so batching elsewhere never
  changes a BLAS reduction shape.

The fast path declines runs that need the per-slot machinery it strips
(tracing, delayed labels, a fault plan on a mixed or subclassed fleet) —
those fall back to the retained scalar loop.  Its working set stays small:
the engine holds pool indices in the smallest dtype that indexes the pool,
widens them one piece of a block at a time, and frees them before the
record is priced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.model_selection import (
    OnlineModelSelection,
    block_openings,
    open_blocks,
)
from repro.sim.kernel import (
    EdgeSlotKernel,
    ShardSlotKernel,
    SlotAggregator,
    SlotOutcomes,
    draw_pool_indices,
)
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.sim.simulator import Simulator

__all__ = ["can_vectorize", "run_vectorized"]


def can_vectorize(sim: "Simulator") -> bool:
    """Whether ``sim`` qualifies for the vectorized fast path.

    Tracing and delayed label feedback hook into the per-slot kernel body
    the fast path elides, so such runs use the scalar reference loop
    instead (bit-identical either way).  A fault plan qualifies when every
    selection policy is a plain :class:`OnlineModelSelection`: the engine
    then walks whole blocks and folds their lost slots, while a mixed or
    subclassed fleet under a plan declines.  Live inference *is*
    supported: forward passes stay per edge-slot, exactly as the kernel
    issues them.
    """
    if sim.tracer.enabled or sim.label_delay != 0:
        return False
    return sim.faults.is_empty or all(
        type(policy) is OnlineModelSelection for policy in sim.selection_policies
    )


def run_vectorized(sim: "Simulator") -> SimulationResult:
    """Execute ``sim`` on the fast path; bit-identical to the scalar loop."""
    scenario = sim.scenario
    horizon = scenario.horizon
    arrival_processes, edge_kernels, trading_kernel = sim.build_kernels()
    # Each edge's arrivals for the whole horizon in one call, consumed in
    # slot order: stream-identical to the scalar loop's per-slot draws.
    counts = np.stack([proc.sample_slots(horizon) for proc in arrival_processes])
    engine = ShardSlotKernel(edge_kernels)
    if engine.columnar:
        record = engine.step(0, counts, np.broadcast_to(False, counts.shape))
    else:
        record = _mixed_fleet(sim, edge_kernels, counts)
    aggregator = SlotAggregator(scenario, trading_kernel)
    aggregator.fold(0, record)
    return aggregator.result(sim.label)


def _mixed_fleet(
    sim: "Simulator", edge_kernels: list[EdgeSlotKernel], counts: np.ndarray
) -> SlotOutcomes:
    """The horizon's record of a clean fleet that is not all plain Algorithm 1.

    Drives the policies' public per-slot interface; block openings of any
    plain Algorithm-1 members still batch by slot.  Each edge's pool
    indices are drawn once for the horizon, slot by slot under class mixes.
    """
    scenario = sim.scenario
    horizon, num_edges = scenario.horizon, scenario.num_edges
    policies = [kernel.policy for kernel in edge_kernels]
    profiles = scenario.profiles
    correct_tables = [profile.correct_per_sample for profile in profiles]
    latency_rows = scenario.latencies.tolist()

    # Uniform draws are held in the smallest dtype that indexes the pool,
    # sliced per slot by offsets; class-mix draws stay per slot.
    index_dtype = np.min_scalar_type(edge_kernels[0].pool_size - 1)
    offsets = np.zeros((num_edges, horizon + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=offsets[:, 1:])
    draws: list = []
    for kernel, row, bounds in zip(edge_kernels, counts, offsets):
        if kernel.class_indices is None:
            flat = kernel.data_rng.integers(0, kernel.pool_size, size=int(bounds[-1]))
            draws.append(flat.astype(index_dtype))
        else:
            draws.append(
                [
                    draw_pool_indices(
                        scenario, kernel.edge, count, kernel.data_rng,
                        kernel.pool_size, kernel.class_indices,
                    )
                    for count in row.tolist()
                ]
            )

    def slot_draw(i: int, t: int) -> np.ndarray:
        """Edge ``i``'s pool indices at slot ``t``."""
        drawn = draws[i]
        if isinstance(drawn, list):
            return drawn[t]
        return drawn[offsets[i, t] : offsets[i, t + 1]].astype(np.intp)

    open_groups = block_openings(policies)
    selections = np.zeros(
        (num_edges, horizon), dtype=np.min_scalar_type(scenario.num_models - 1)
    )
    loss_mat = np.zeros((num_edges, horizon))
    correct_mat = np.zeros((num_edges, horizon))
    # ``np.add.reduce`` is the kernel inside ``ndarray.sum``/``mean`` (same
    # pairwise routine, so bit-identical) minus several layers of Python
    # wrapper.
    reduce_add = np.add.reduce
    select_fns = [policy.select for policy in policies]
    observe_fns = [policy.observe for policy in policies]
    for t in range(horizon):
        group = open_groups.get(t)
        if group is not None:
            open_blocks(group)
        for i, kernel in enumerate(edge_kernels):
            model = select_fns[i](t)
            idx = slot_draw(i, t)
            # One forward per edge-slot under live inference: the step's call.
            losses = kernel.sample_losses(profiles[model], idx)
            slot_loss = float(reduce_add(losses) / losses.size)
            observe_fns[i](t, model, slot_loss + latency_rows[i][model])
            selections[i, t] = model
            loss_mat[i, t] = slot_loss
            correct_mat[i, t] = reduce_add(correct_tables[model][idx])
    del draws, offsets
    switches = np.ones((num_edges, horizon), dtype=bool)
    np.not_equal(selections[:, 1:], selections[:, :-1], out=switches[:, 1:])
    never = np.broadcast_to(False, selections.shape)
    return SlotOutcomes.from_columns(
        0, np.arange(num_edges), scenario,
        np.array([kernel.switch_cost for kernel in edge_kernels]),
        model=selections, switched=switches, offline=never, shed=never,
        arrivals=counts, served=counts, slot_loss=loss_mat, correct=correct_mat,
    )
