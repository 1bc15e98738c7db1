"""Algorithm 1 — Online Model Selection via switching-aware bandit learning.

One instance controls one edge.  The time horizon is partitioned into blocks
of increasing length (:mod:`repro.core.blocks`); the model is sampled once
per block from the Tsallis-entropy OMD distribution over cumulative
importance-weighted loss estimates, and held fixed within the block.  This
bounds the number of model switches by the number of blocks ``K_i`` while
still balancing exploration and exploitation, giving the Theorem-1 regret
``O((u_i N)^{2/3} T^{1/3} + u_i^2 + ln T)`` *including* switching cost.

Bookkeeping is per block, so the policy also supports *delayed feedback*
(ground-truth labels arriving several slots after inference, paper Step
2.3): ``select`` may run ahead into newer blocks while earlier blocks'
losses are still outstanding; each block folds into the estimator the
moment its last slot loss arrives.  With zero delay this reduces exactly to
the paper's Algorithm 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import BlockSchedule, build_schedule
from repro.core.estimators import ImportanceWeightedEstimator
from repro.core.tsallis import (
    tsallis_inf_probabilities,
    tsallis_inf_probabilities_batch,
)
from repro.obs.events import BlockBoundaryEvent
from repro.policies.selection import SelectionPolicy
from repro.utils.validation import check_simplex

__all__ = ["OnlineModelSelection", "block_openings", "open_blocks"]


@dataclass
class _BlockRecord:
    """Feedback tally of one open block awaiting (possibly delayed) losses."""

    block: int
    model: int
    length: int
    loss_sum: float = 0.0
    observed: int = 0
    lost: int = 0


class OnlineModelSelection(SelectionPolicy):
    """The paper's Algorithm 1 for a single edge.

    Parameters
    ----------
    num_models:
        Number of candidate models ``N``.
    horizon:
        Number of time slots ``T``.
    switch_cost:
        The edge's effective switching cost (``u_i`` scaled by the
        experiment's switching-cost weight); larger values yield longer
        blocks and therefore fewer switches.
    rng:
        Random stream used for the per-block model sampling.
    """

    name = "Ours"

    def __init__(
        self,
        num_models: int,
        horizon: int,
        switch_cost: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(num_models)
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if switch_cost < 0:
            raise ValueError(f"switch_cost must be non-negative, got {switch_cost}")
        self.horizon = horizon
        self.switch_cost = switch_cost
        self._rng = rng
        self._schedule = build_schedule(horizon, switch_cost, num_models)
        self._estimator = ImportanceWeightedEstimator(num_models)
        # Entry ``k`` holds block ``k``'s model and sampling distribution
        # once it opens.  A block's feedback tally lives in ``_open`` only
        # until it closes (lines 8-9 never read it again), so pickled state —
        # the serve tier's restart checkpoints — does not grow with the run.
        num_blocks = self._schedule.num_blocks
        self._models = [0] * num_blocks
        self._probabilities = np.zeros((num_blocks, num_models))
        self._open: dict[int, _BlockRecord] = {}
        self._latest_block = -1
        self._selection_counts = np.zeros(num_models, dtype=int)

    def __setstate__(self, state: dict[str, object]) -> None:
        """Restore a pickled policy, including the one-record-per-block layout."""
        state = dict(state)
        if "_blocks" in state:
            # Policies pickled before closed blocks moved into the arrays
            # kept a record, with its own distribution, for every opened
            # block; the copies into the arrays are exact.
            records = state.pop("_blocks")
            num_blocks = state["_schedule"].num_blocks
            models = [0] * num_blocks
            probabilities = np.zeros((num_blocks, state["num_models"]))
            open_records = {}
            for block, record in records.items():
                models[block] = record.model
                probabilities[block] = record.probabilities
                if not record.closed:
                    open_records[block] = _BlockRecord(
                        block, record.model, record.length,
                        record.loss_sum, record.observed, record.lost,
                    )
            state.update(
                _models=models, _probabilities=probabilities, _open=open_records
            )
        self.__dict__.update(state)

    @property
    def schedule(self) -> BlockSchedule:
        """The Theorem-1 block schedule in force."""
        return self._schedule

    @property
    def selection_counts(self) -> np.ndarray:
        """Number of slots each model has been hosted so far (copy)."""
        return self._selection_counts.copy()

    @property
    def probability_history(self) -> list[np.ndarray]:
        """Sampling distribution used at the start of each opened block."""
        return [row.copy() for row in self._probabilities[: self._latest_block + 1]]

    @property
    def pending_blocks(self) -> int:
        """Opened blocks still waiting for (delayed) observations."""
        return len(self._open)

    def select(self, t: int) -> int:
        """Return the model for slot ``t``, resampling only at block starts."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"slot {t} outside horizon [0, {self.horizon})")
        block = self._schedule.block_of_slot(t)
        if block > self._latest_block:
            self._open_block(block, t)
        model = self._models[block]
        self._selection_counts[model] += 1
        return model

    def pending_block(self, t: int) -> int | None:
        """The block ``select(t)`` would have to open, or ``None``.

        No code in the program calls this: the columnar engine
        (:class:`~repro.sim.kernel.ShardSlotKernel`) opens blocks in rounds
        and the per-slot drivers with :func:`block_openings`.  It is kept
        only because the benchmark's layer profiler (``perf/layers.py``)
        wraps it by name.
        """
        if not 0 <= t < self.horizon:
            raise ValueError(f"slot {t} outside horizon [0, {self.horizon})")
        block = self._schedule.block_of_slot(t)
        return None if block <= self._latest_block else block

    def cumulative_estimates(self) -> np.ndarray:
        """Read-only view of the current ``C_hat`` vector (no copy).

        This is the exact array the next :meth:`select` would feed to the
        Tsallis solve; batch drivers stack one row per edge from it.
        """
        return self._estimator.cumulative_view()

    def block_eta(self, block: int) -> float:
        """The learning rate the schedule assigns to ``block``."""
        return float(self._schedule.etas[block])

    def open_block_with(
        self, block: int, t: int, probabilities: np.ndarray, *, validated: bool = False
    ) -> int:
        """Lines 4-5 given a precomputed OMD distribution (batch opens).

        The distribution must be exactly what the scalar solve would have
        produced (the batched solver guarantees this bitwise); sampling the
        block model still happens here, on this edge's own RNG stream, so
        per-stream draw order is untouched.  Pass ``validated=True`` when
        the caller already ran the simplex postcondition on ``probabilities``
        (both Tsallis solvers do) — the check never alters values, so
        skipping the re-check is behavior-neutral.  Returns the sampled
        block model.
        """
        if block != self._latest_block + 1:
            raise RuntimeError(
                f"slots must be visited in order: at block {block}, "
                f"expected {self._latest_block + 1}"
            )
        if not validated:
            probabilities = check_simplex(
                probabilities, f"block {block} sampling distribution"
            )
        model = int(self._rng.choice(self.num_models, p=probabilities))
        length = int(self._schedule.lengths[block])
        self._models[block] = model
        self._probabilities[block] = probabilities
        self._open[block] = _BlockRecord(block, model, length)
        self._latest_block = block
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                BlockBoundaryEvent(
                    t=t,
                    edge=self.trace_edge,
                    block=block,
                    length=length,
                    eta=self.block_eta(block),
                    model=model,
                )
            )
        return model

    def block_model(self, block: int) -> int:
        """The model an opened ``block`` hosts; counts no selection."""
        if block > self._latest_block:
            raise RuntimeError(f"block {block} has not been opened")
        return self._models[block]

    def observe_block(
        self, block: int, slot_losses: list[float], lost: int = 0
    ) -> None:
        """Fold a piece of one block's feedback in a single call (line 7, bulk).

        The piece is consecutive slots of ``block`` that no earlier call
        covered: ``slot_losses`` are its observed slot losses in slot order
        and ``lost`` counts its slots whose feedback never arrived.  This is
        bitwise-identical to the per-slot :meth:`observe` /
        :meth:`observe_lost` calls over those slots, and pieces mix with
        such calls on the same block: the loss sum keeps accumulating left
        to right as Python floats, :attr:`feedback_losses` grows by ``lost``
        and, because a piece replaces the per-slot ``select`` calls too,
        :attr:`selection_counts` by the piece's length.  The block closes
        (folding into the estimator) once its observed plus lost slots reach
        its length, and an all-lost block folds nothing.  A piece that
        overruns the block raises ``ValueError``.  Batch drivers pair it
        with :meth:`open_block_with`.
        """
        if block > self._latest_block:
            raise RuntimeError(f"observed block {block} before it was opened")
        record = self._open.get(block)
        if record is None:
            raise RuntimeError(f"block {block} already received all its losses")
        size = len(slot_losses) + lost
        if lost < 0 or record.observed + record.lost + size > record.length:
            raise ValueError(
                f"block {block} spans {record.length} slots, "
                f"{record.observed + record.lost} seen, got "
                f"{len(slot_losses)} losses and {lost} lost slots"
            )
        total = record.loss_sum
        for loss in slot_losses:
            if not math.isfinite(loss):
                raise ValueError(f"loss must be finite, got {loss!r}")
            total += float(loss)
        record.loss_sum = total
        record.observed += len(slot_losses)
        record.lost += lost
        self.feedback_losses += lost
        self._selection_counts[record.model] += size
        if record.observed + record.lost == record.length:
            self._close_block(record)

    def observe(self, t: int, model: int, loss: float) -> None:
        """Accumulate a (possibly delayed) slot loss into its block (line 7)."""
        self._check_model(model)
        if not math.isfinite(loss):
            raise ValueError(f"loss must be finite, got {loss!r}")
        record = self._open_record(t, model, "observed loss")
        record.loss_sum += float(loss)
        record.observed += 1
        if record.observed + record.lost == record.length:
            self._close_block(record)

    def observe_lost(self, t: int, model: int) -> None:
        """Account a slot whose feedback was dropped (fault injection).

        The block's schedule position is consumed (the slot happened), but
        its loss never folds into the estimator — the block closes once
        every slot is either observed or lost, and an entirely-lost block
        leaves the cumulative estimates untouched, keeping the
        importance-weighted estimator unbiased over observed slots.
        """
        super().observe_lost(t, model)
        record = self._open_record(t, model, "lost feedback")
        record.lost += 1
        if record.observed + record.lost == record.length:
            self._close_block(record)

    def _open_record(self, t: int, model: int, what: str) -> _BlockRecord:
        """The record of slot ``t``'s open block, checked to host ``model``.

        ``what`` names the feedback in the error raised when the block is
        not open yet, hosts another model, or has already closed.
        """
        block = self._schedule.block_of_slot(t)
        record = self._open.get(block)
        if record is not None and model == record.model:
            return record
        if block > self._latest_block:
            raise RuntimeError(f"{what} for slot {t} before its block was opened")
        hosted = self._models[block]
        if model != hosted:
            raise ValueError(
                f"{what} for model {model}, but block {block} hosts model {hosted}"
            )
        raise RuntimeError(f"block {block} already received all its losses")

    def _open_block(self, block: int, t: int) -> int:
        """Lines 3-5: compute the OMD distribution and sample the block model.

        Under delayed feedback the cumulative estimates may still miss
        outstanding blocks — the distribution is simply computed from what
        has arrived, the standard delayed-bandit semantics.  The solver ran
        the simplex postcondition already.  Returns the sampled model.
        """
        probabilities = tsallis_inf_probabilities(
            self._estimator.cumulative, self.block_eta(block)
        )
        return self.open_block_with(block, t, probabilities, validated=True)

    def _close_block(self, record: _BlockRecord) -> None:
        """Lines 8-9: fold the complete block loss into the estimator.

        A block whose every slot lost its feedback folds nothing — the OMD
        distribution for later blocks is computed from observed blocks only.
        """
        if record.observed > 0:
            # The block's distribution is our own Tsallis solve, already past
            # its simplex postcondition — skip the defensive re-validation.
            self._estimator.update(
                record.model,
                record.loss_sum,
                self._probabilities[record.block],
                trusted=True,
            )
        del self._open[record.block]


#: One Theorem-1 block opening: ``(edge, policy, block, start slot)``.
BlockOpening = tuple[int, OnlineModelSelection, int, int]


def block_openings(policies: list) -> dict[int, list[BlockOpening]]:
    """Every block opening of the plain Algorithm-1 edges, grouped by start slot.

    Block boundaries are fixed by the Theorem-1 schedule, so every opening
    and its start slot are known up front.  Each group lists the openings
    that coincide at a slot, edges in ascending order of their index in
    ``policies``.  Only exact :class:`OnlineModelSelection` instances
    participate — subclasses may override the opening logic and fall back
    to their own ``select``.
    """
    groups: dict[int, list[BlockOpening]] = {}
    for i, policy in enumerate(policies):
        if type(policy) is not OnlineModelSelection:
            continue
        for block, start in enumerate(policy.schedule.starts.tolist()):
            groups.setdefault(start, []).append((i, policy, block, start))
    return groups


def open_blocks(group: list[BlockOpening]) -> list[int]:
    """Open every block in ``group`` with one batched OMD solve.

    Each row opens at its own start slot.  A single opening is the scalar
    one ``select`` makes; two or more use the batched solver, whose rows
    are bitwise identical to the scalar trajectories whatever else shares
    the batch.  Sampling the block model happens inside each policy, on its
    own ``selection-<edge>`` stream, in block order — the same per-stream
    draw order as per-edge ``select`` calls.  The batched solver already
    ran the simplex postcondition, so the openings skip the re-check.
    Returns the sampled models, aligned with ``group``.
    """
    if len(group) == 1:
        _, policy, block, start = group[0]
        return [policy._open_block(block, start)]
    stacked = np.stack([p.cumulative_estimates() for _, p, _, _ in group])
    etas = np.array([p.block_eta(b) for _, p, b, _ in group])
    probabilities = tsallis_inf_probabilities_batch(stacked, etas)
    return [
        policy.open_block_with(block, start, row, validated=True)
        for row, (_, policy, block, start) in zip(probabilities, group)
    ]
