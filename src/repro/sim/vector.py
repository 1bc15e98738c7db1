"""Vectorized fast path of :meth:`repro.sim.simulator.Simulator.run`.

The scalar reference loop executes ``horizon x num_edges`` full
:class:`~repro.sim.kernel.EdgeSlotKernel` steps — each one paying for a
outcome row, per-field float conversions, energy-model method
dispatch, and fault/tracer bookkeeping that a clean run never uses.  This
module re-executes the *same arithmetic in the same floating-point order*
with the per-edge-slot overhead stripped out and the pure-array parts
batched, so the result is **bit-identical** to the scalar path (locked by
the pinned golden digests and by ``tests/test_vectorized.py``).

The fast path runs in two phases:

* **Phase A (selection)** resolves every edge's Algorithm-1 trajectory.
  When the whole fleet runs plain :class:`OnlineModelSelection`, this is
  *block-wise* and runs in rounds: round ``k`` opens block ``k`` of every
  edge whose schedule has that many blocks, with one
  :func:`tsallis_inf_probabilities_batch` call for the whole round (each
  row at its own start slot).  Each opened block's full span of slot
  losses is then computed and folded in one
  :meth:`~OnlineModelSelection.observe_block` call — no per-slot
  ``select``/``observe`` round-trips at all.  Mixed or subclassed fleets
  fall back to a per-slot loop over the policies' public interface, which
  batches only the block openings that coincide at a slot.  Both open
  blocks through :func:`~repro.core.model_selection.open_blocks`, as the
  serve tier's shard slot loop does.
* **Edge faults** are handled inside that same per-block body, from the
  injector's realized masks.  Each block walks the edge kernel's download
  retry machine (:meth:`~repro.sim.kernel.EdgeSlotKernel.resolve_download`)
  from its first slot until the block's model first serves; until then an
  online slot serves the hosted model.  Offline slots keep the chosen
  model, serve and cost nothing, and still draw their pool indices.
  Offline, still-hosted and feedback-lost slots are passed to
  ``observe_block`` as lost slots.  Market outages and trade rejections
  need nothing here: the trading kernel the fold steps holds the injector.
* **Phase B (the record)**: selection does not depend on trading, so the
  whole horizon becomes one :class:`~repro.sim.kernel.SlotOutcomes` of
  views of Phase A's matrices.
  :meth:`~repro.sim.kernel.SlotOutcomes.from_columns`, which prices the
  serve tier's columnar shard step too, derives its cost columns, every
  edge-slot's emissions from one
  :meth:`EnergyModel.slot_emissions_kg_batch` call.  The scalar loop's own
  :class:`~repro.sim.kernel.SlotAggregator` folds it once, stepping the
  (stateful, order-dependent) trading kernel once per slot.

Why digests are preserved (the full argument is in DESIGN.md):

* **RNG streams** — arrivals, pool draws, block sampling, and trading each
  live on their own named stream.  Pre-drawing a whole horizon of Poisson
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
  last slot; folding a block's losses at open time is therefore
  unobservable, and ``observe_block`` accumulates them in the same
  left-to-right Python-float order as per-slot ``observe`` calls.
* **Energy arithmetic** — :meth:`EnergyModel.slot_emissions_kg_batch`
  preserves the scalar method's operation order element by element.
* **Tsallis solves** — a round's block openings are solved by
  :func:`~repro.core.tsallis.tsallis_inf_probabilities_batch`, whose rows
  follow the scalar safeguarded-Newton trajectory bitwise whatever else
  shares the batch.  Rounds are safe because edges are independent in
  Phase A: edge ``i``'s block ``k`` reads only edge ``i``'s estimator,
  which round ``k - 1`` has closed, and samples on edge ``i``'s own
  ``selection-<edge>`` stream in block order.
* **Live inference** — forward passes stay per edge-slot on the slot's own
  index draw (exactly the kernel's call), so batching elsewhere never
  changes a BLAS reduction shape.

The fast path declines runs that need the per-slot machinery it strips
(tracing, delayed labels, a fault plan on a mixed or subclassed fleet) —
those fall back to the retained scalar loop.

Phase A's working set is kept small: pool indices are stored in the
smallest dtype that holds the pool and freed before Phase B allocates, and
slot offsets stay numpy arrays.  At 64 edges and H=1000 the draws are the
run's largest buffers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.model_selection import (
    OnlineModelSelection,
    block_openings,
    open_blocks,
)
from repro.nn.losses import squared_label_loss
from repro.sim.kernel import (
    EdgeSlotKernel,
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
    selection policy is a plain :class:`OnlineModelSelection`: Phase A then
    walks whole blocks and folds their lost slots, while a mixed or
    subclassed fleet under a plan declines.  Live inference *is*
    supported: forward passes stay per edge-slot, exactly as the kernel
    issues them.
    """
    if sim.tracer.enabled or sim.label_delay != 0:
        return False
    return sim.faults.is_empty or all(
        type(policy) is OnlineModelSelection for policy in sim.selection_policies
    )


def _first_serving_slot(
    kernel: EdgeSlotKernel, model: int, t: int, end: int, offline: np.ndarray
) -> int:
    """The first slot of ``[t, end)`` where the block's ``model`` serves, or ``end``.

    Walks the edge's download retry machine
    (:meth:`~repro.sim.kernel.EdgeSlotKernel.resolve_download`) from the
    block's first slot, exactly as the scalar step runs it on each online
    slot: a ``retry_wait`` left over from the previous block can delay the
    switch even where the failure mask has no hit.  Offline slots leave the
    retry state untouched, because the scalar step returns before its
    download logic.  Once the model serves, the rest of the block serves it
    with no further switch, so the walk stops there.
    """
    for s in range(t, end):
        if not offline[s] and kernel.resolve_download(s, model) == model:
            return s
    return end


def run_vectorized(sim: "Simulator") -> SimulationResult:
    """Execute ``sim`` on the fast path; bit-identical to the scalar loop."""
    scenario = sim.scenario
    horizon, num_edges = scenario.horizon, scenario.num_edges

    arrival_processes, edge_kernels, trading_kernel = sim.build_kernels()
    policies = [kernel.policy for kernel in edge_kernels]

    # Edge faults reach Phase A as realized (edge, slot) masks; market
    # faults stay inside the trading kernel, which the fold steps per slot.
    offline = lost = None
    injector = edge_kernels[0].injector
    if injector is not None and injector.has_edge_faults:
        offline = np.ascontiguousarray(injector.offline_mask.T)
        # Slots whose feedback never lands, whichever model serves them.
        lost = offline | injector.feedback_lost_mask.T

    profiles = scenario.profiles
    loss_tables = [profile.loss_per_sample for profile in profiles]
    correct_tables = [profile.correct_per_sample for profile in profiles]
    latency_rows = [[float(v) for v in row] for row in scenario.latencies]

    live = sim.live_inference
    losses_for: Callable[[int, np.ndarray], np.ndarray]
    if live:
        for profile in profiles:
            if profile.network is None:
                raise ValueError(
                    f"profile {profile.name!r} has no network for live inference"
                )
        if scenario.x_pool is None or scenario.y_pool is None:
            raise ValueError("scenario carries no data pool for live inference")
        x_pool, y_pool = scenario.x_pool, scenario.y_pool
        networks = [profile.network for profile in profiles]

        def losses_for(model: int, idx: np.ndarray) -> np.ndarray:
            # One forward per edge-slot on the slot's own draw — the exact
            # call the kernel makes, so BLAS sees identical batch shapes.
            proba = networks[model].predict_proba(x_pool[idx])
            return squared_label_loss(proba, y_pool[idx])

    else:

        def losses_for(model: int, idx: np.ndarray) -> np.ndarray:
            return loss_tables[model][idx]

    # Pre-draw every stream for the whole horizon.  Each edge's arrival and
    # data streams are consumed in slot order within one vectorized call —
    # stream-identical to the scalar loop's per-slot draws.  Offline slots
    # draw too, as the scalar step does.  The indices are kept in the
    # smallest dtype that holds the pool, and the slot offsets as arrays:
    # at 64 edges these are the largest buffers of the run.
    counts_mat = np.stack(
        [proc.sample_slots(horizon) for proc in arrival_processes]
    )
    pool_size = edge_kernels[0].pool_size
    class_indices = edge_kernels[0].class_indices
    index_dtype = np.min_scalar_type(pool_size - 1)
    offsets: list[np.ndarray | None] = []
    flat_indices: list[np.ndarray | None] = []
    slot_indices: list[list[np.ndarray] | None] = []
    for i in range(num_edges):
        counts = counts_mat[i]
        if class_indices is None:
            bounds = np.concatenate(([0], np.cumsum(counts)))
            offsets.append(bounds)
            flat_indices.append(
                edge_kernels[i]
                .data_rng.integers(0, pool_size, size=int(bounds[-1]))
                .astype(index_dtype)
            )
            slot_indices.append(None)
        else:
            # Two-stage class-mix draws interleave choice/integers calls per
            # slot; keep them per-slot (still in stream order per edge).
            offsets.append(None)
            flat_indices.append(None)
            slot_indices.append(
                [
                    draw_pool_indices(
                        scenario, i, int(counts[t]), edge_kernels[i].data_rng,
                        pool_size, class_indices,
                    )
                    for t in range(horizon)
                ]
            )

    blockwise = all(type(policy) is OnlineModelSelection for policy in policies)
    open_groups = block_openings(policies, by_slot=not blockwise)

    # Every per-edge-slot matrix is (edge, slot), the record's layout.
    selections = np.zeros(
        (num_edges, horizon), dtype=np.min_scalar_type(scenario.num_models - 1)
    )
    switches = np.zeros((num_edges, horizon), dtype=bool)
    loss_mat = np.zeros((num_edges, horizon))
    correct_mat = np.zeros((num_edges, horizon))
    loss_rows = [loss_mat[i] for i in range(num_edges)]
    correct_rows = [correct_mat[i] for i in range(num_edges)]

    # ``np.add.reduce`` is the kernel inside ``ndarray.sum``/``mean`` (same
    # pairwise routine, so bit-identical) minus several layers of Python
    # wrapper — worth it at ~10k reductions per run.
    reduce_add = np.add.reduce

    def slot_draw(i: int, s: int) -> np.ndarray:
        """Edge ``i``'s pool indices at slot ``s``."""
        flat = flat_indices[i]
        if flat is None:
            return slot_indices[i][s]
        bounds = offsets[i]
        return flat[bounds[s] : bounds[s + 1]].astype(np.intp)

    def fill(i: int, model: int, a: int, b: int) -> None:
        """Edge ``i``'s slot losses and correct counts over ``[a, b)``.

        ``model`` serves the span.  A gathered span computes its offline
        slots too, and Phase B zeroes them; the per-slot path skips them,
        because a live forward pass is worth saving.
        """
        row_loss = loss_rows[i]
        row_correct = correct_rows[i]
        flat = flat_indices[i]
        if flat is not None and not live:
            # One gather for the span; per-slot loss reductions run on
            # contiguous slices of it (bitwise the same as per-slot gathers
            # of the identical values).
            bounds = offsets[i][a : b + 1]
            base = int(bounds[0])
            # Gathers index fastest with intp: widen the span's draws once.
            span = flat[base : int(bounds[-1])].astype(np.intp)
            cuts = bounds - base
            # Correct counts are sums of 0/1 indicators — every partial sum
            # is an exactly-representable integer, so the summation order
            # cannot change the result and reduceat (not otherwise
            # bit-stable) is safe here.
            row_correct[a:b] = np.add.reduceat(
                correct_tables[model][span], cuts[:-1]
            )
            seg_losses = loss_tables[model][span]
            cuts = cuts.tolist()
            row_loss[a:b] = [
                reduce_add(seg_losses[lo:hi]) / (hi - lo)
                for lo, hi in zip(cuts, cuts[1:])
            ]
        else:
            for s in range(a, b):
                if offline is not None and offline[i, s]:
                    continue
                idx = slot_draw(i, s)
                losses = losses_for(model, idx)
                row_loss[s] = reduce_add(losses) / losses.size
                row_correct[s] = reduce_add(correct_tables[model][idx])

    # Phase A — selection trajectories (independent of trading).
    if blockwise:
        # Whole blocks at a time, one round per block index: round k opens
        # block k of every edge in one batched solve, then computes and
        # folds each block's entire slot-loss span in one observe_block
        # call.  Edge i's block k reads only edge i's estimator, which
        # round k-1 closed, so rounds reorder nothing any edge observes.
        for k in range(len(open_groups)):
            group = open_groups[k]
            models = open_blocks(group)
            for model, (i, policy, block, t) in zip(models, group):
                end = t + int(policy.schedule.lengths[block])
                kernel = edge_kernels[i]
                hosted = kernel.previous_model
                first = t
                if offline is not None:
                    first = _first_serving_slot(kernel, model, t, end, offline[i])
                # Until ``first`` an online slot still serves the hosted
                # model, and an edge that never served has only offline
                # slots there.  An offline slot keeps the chosen model.
                split = first if hosted >= 0 else t
                selections[i, t:end] = model
                if split > t:
                    selections[i, t:split] = np.where(
                        offline[i, t:split], model, hosted
                    )
                    fill(i, hosted, t, split)
                if split < end:
                    fill(i, model, split, end)
                if first < end:
                    # A switch is measured against the last *served* model.
                    kernel.previous_model = model
                    switches[i, first] = model != hosted
                observed = loss_rows[i][first:end] + latency_rows[i][model]
                if lost is not None:
                    observed = observed[~lost[i, first:end]]
                feedback = observed.tolist()
                policy.observe_block(block, feedback, lost=end - t - len(feedback))
    else:
        # Mixed fleet: drive the policies' public per-slot interface (block
        # openings of any plain Algorithm-1 members still batch).
        select_fns = [policy.select for policy in policies]
        observe_fns = [policy.observe for policy in policies]
        for t in range(horizon):
            group = open_groups.get(t)
            if group is not None:
                open_blocks(group)
            for i in range(num_edges):
                model = select_fns[i](t)
                idx = slot_draw(i, t)
                losses = losses_for(model, idx)
                slot_loss = float(reduce_add(losses) / losses.size)
                observe_fns[i](t, model, slot_loss + latency_rows[i][model])
                selections[i, t] = model
                loss_rows[i][t] = slot_loss
                correct_rows[i][t] = reduce_add(correct_tables[model][idx])
        switches[:, 0] = True
        np.not_equal(selections[:, 1:], selections[:, :-1], out=switches[:, 1:])
    # Phase B never reads the draws: free them before it allocates.
    del flat_indices, slot_indices, offsets

    # Phase B — the whole horizon as one record, folded once.  Selections
    # are fully known, so the record's cost columns, emissions included,
    # are priced in one pass by the helper the shard step uses too; the
    # fold sums the columns across edges and steps the stateful,
    # order-dependent trading kernel slot by slot.
    served = counts_mat
    if offline is not None:
        # An offline edge-slot serves nothing: no arrivals served, no loss,
        # and (with zero arrivals and no switch) exactly zero emissions.
        served = np.where(offline, 0, counts_mat)
        loss_mat[offline] = 0.0
        correct_mat[offline] = 0.0
    never = np.broadcast_to(False, selections.shape)
    record = SlotOutcomes.from_columns(
        0, np.arange(num_edges), scenario,
        np.array([kernel.switch_cost for kernel in edge_kernels]),
        model=selections, switched=switches,
        offline=never if offline is None else offline, shed=never,
        arrivals=counts_mat, served=served, slot_loss=loss_mat,
        correct=correct_mat,
    )
    aggregator = SlotAggregator(scenario, trading_kernel)
    aggregator.fold(0, record)
    return aggregator.result(sim.label)
