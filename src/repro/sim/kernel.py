"""Shared slot kernels: the exact per-slot logic of the control loop.

The per-edge inference step (Algorithm 1's select/observe cycle plus fault
handling) and the system-level trading step (Algorithm 2's decide/observe
cycle plus the ledger/market bookkeeping) live here as small stateful
kernels.  What couples them is each slot's edge outcomes, one columnar
:class:`SlotOutcomes` record, and :class:`SlotAggregator` is the one fold
of such records into the run's result arrays: it sums each column across
edges in edge order, then steps the trading kernel once per slot.  The
scalar :class:`~repro.sim.simulator.Simulator` loop folds a one-slot
record per slot, the vectorized path (:mod:`repro.sim.vector`) one record
for the whole horizon, and :mod:`repro.serve` the records its shard
workers send.  Because every runtime executes the *same* code in the same
floating-point operation order, the serve runtime's virtual-clock mode is
bit-identical to ``Simulator.run`` by construction (locked by the golden
digests).

:class:`ShardSlotKernel` is the one columnar Algorithm-1 engine: one call
steps a span of slots ``[a, b)`` of a set of edge kernels and returns the
span's record.  The vectorized simulator steps its whole horizon as one
span, and a serve worker each run of released slots.  Over a plain
Algorithm-1 fleet it draws each edge's pool indices once per span, opens
the span's blocks in batched rounds and folds each piece of a block with
one call; any other fleet runs the per-edge :meth:`EdgeSlotKernel.step`
loop slot by slot, which stays the reference.
:meth:`SlotOutcomes.from_columns` prices the engine's spans.

State is explicit: each kernel exposes ``state_dict()`` / ``load_state()``
so a serve snapshot can capture a quiescent slot boundary and a restored
process can resume mid-horizon without replaying.  An edge kernel's state
is plain data (arrays, numbers and bit-generator states), restored into
the objects a kernel built from the same config already holds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from repro.core.model_selection import (
    OnlineModelSelection,
    block_openings,
    open_blocks,
)
from repro.faults.injector import FaultInjector
from repro.market.ledger import AllowanceLedger
from repro.market.market import CarbonMarket
from repro.nn.losses import squared_label_loss
from repro.obs.events import (
    FaultInjectedEvent,
    FeedbackLostEvent,
    ModelSwitchEvent,
    RetryEvent,
    TradeRejectedEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.selection import SelectionPolicy
from repro.policies.trading import TradeDecision, TradingContext, TradingPolicy
from repro.sim.results import SimulationResult
from repro.sim.scenario import Scenario

__all__ = [
    "EdgeSlotKernel",
    "EdgeSlotOutcome",
    "ShardSlotKernel",
    "SlotAggregator",
    "SlotOutcomes",
    "TradingSlotKernel",
    "class_index_map",
    "draw_pool_indices",
    "offline_outcome",
]


def class_index_map(scenario: Scenario) -> list[np.ndarray] | None:
    """Pool indices per class, when per-edge class mixes are in force."""
    weights = scenario.edge_class_weights  # (I, K) per-edge class mix
    if weights is None:
        return None
    labels = scenario.y_pool
    assert labels is not None  # enforced by Scenario validation
    return [np.nonzero(labels == k)[0] for k in range(weights.shape[1])]


def draw_pool_indices(
    scenario: Scenario,
    edge: int,
    count: int,
    rng: np.random.Generator,
    pool_size: int,
    class_indices: list[np.ndarray] | None,
) -> np.ndarray:
    """IID pool indices for one edge-slot.

    Uniform over the pool (the paper's single distribution D), or a
    two-stage draw — class by the edge's mix, then a uniform member of
    that class — under per-edge heterogeneity.
    """
    if class_indices is None:
        return rng.integers(0, pool_size, size=count)
    weights = scenario.edge_class_weights[edge]  # (K,) this edge's class mix
    classes = rng.choice(weights.size, size=count, p=weights)
    idx = np.empty(count, dtype=int)
    for k in np.unique(classes):
        members = class_indices[k]
        if members.size == 0:
            raise ValueError(f"class {k} has no pool members to sample")
        mask = classes == k
        idx[mask] = members[rng.integers(0, members.size, size=int(mask.sum()))]
    return idx


class EdgeSlotOutcome(NamedTuple):
    """What one edge contributed to one slot: one row of a :class:`SlotOutcomes`.

    ``arrivals`` is the raw workload offered to the edge; ``served`` is what
    actually ran inference (zero when the slot was shed under backpressure
    or dropped by an edge outage).  The cost fields default to zero, which
    is what a shed or offline slot costs, mirroring the simulator's
    accounting.  The field names are the record's column names.
    """

    t: int
    edge: int
    model: int
    switched: bool
    offline: bool
    shed: bool
    arrivals: int
    served: int
    expected_loss: float = 0.0
    slot_loss: float = 0.0
    latency: float = 0.0
    switch_cost: float = 0.0
    emissions_kg: float = 0.0
    correct: float = 0.0


#: The dtype of each record column, in field order (``t`` is a scalar).
_DTYPES = tuple(np.dtype(kind) for kind in get_type_hints(EdgeSlotOutcome).values())


class SlotOutcomes(namedtuple("SlotOutcomes", EdgeSlotOutcome._fields)):
    """The edge outcomes of one slot, or of a range of slots from ``t``.

    The columnar form of :class:`EdgeSlotOutcome` rows, with the same
    fields: ``edge`` holds the rows' edge ids in ascending order, and every
    other field after ``t`` is an ``(edges, slots)`` numpy column.  The
    scalar loop builds one-slot records from kernel rows, and a
    :class:`ShardSlotKernel` writes a span's record column by column (the
    whole horizon's, for the vectorized simulator) or, on its per-edge
    body, concatenates one-slot records.
    """

    __slots__ = ()

    @property
    def num_slots(self) -> int:
        """How many consecutive slots, from ``t``, the record covers."""
        return self.model.shape[1]

    @classmethod
    def from_rows(cls, rows: Sequence[EdgeSlotOutcome]) -> "SlotOutcomes":
        """One slot's record from its rows, given in ascending edge order."""
        t, edge, *values = zip(*rows)
        columns = [np.array(v, dtype)[:, None] for v, dtype in zip(values, _DTYPES[2:])]
        return cls(t[0], np.array(edge), *columns)

    @classmethod
    def merge(cls, parts: Sequence["SlotOutcomes"]) -> "SlotOutcomes":
        """One record from records of disjoint edges over the same slots."""
        if len(parts) == 1:
            return parts[0]
        t, *fields = zip(*parts)
        order = np.argsort(np.concatenate(fields[0]))
        return cls(t[0], *(np.concatenate(field)[order] for field in fields))

    @classmethod
    def concat(cls, parts: Sequence["SlotOutcomes"]) -> "SlotOutcomes":
        """One record from records of the same edges over consecutive slots."""
        if len(parts) == 1:
            return parts[0]
        columns = zip(*(part[2:] for part in parts))
        return cls(
            parts[0].t, parts[0].edge, *(np.concatenate(c, axis=1) for c in columns)
        )

    def split(self) -> list["SlotOutcomes"]:
        """The record's one-slot records in slot order; undoes :meth:`concat`."""
        return [
            type(self)(self.t + j, self.edge, *(c[:, j : j + 1] for c in self[2:]))
            for j in range(self.num_slots)
        ]

    @classmethod
    def from_columns(
        cls,
        t: int,
        edge: np.ndarray,
        scenario: Scenario,
        switch_costs: np.ndarray,
        *,
        model: np.ndarray,
        switched: np.ndarray,
        offline: np.ndarray,
        shed: np.ndarray,
        arrivals: np.ndarray,
        served: np.ndarray,
        slot_loss: np.ndarray,
        correct: np.ndarray,
    ) -> "SlotOutcomes":
        """A record from its primary columns, with its four cost columns derived.

        ``switch_costs`` holds each row's cost per switch.  Expected loss,
        latency and emissions come from the scenario's tables by the
        kernel step's arithmetic, element by element
        (:meth:`~repro.energy.model.EnergyModel.slot_emissions_kg_batch`),
        and a row pays its switch cost where it switched.  Offline and
        shed rows cost nothing: the caller serves and switches nothing
        there, which zeroes their emissions and switch cost, and their
        expected loss and latency are zeroed here.
        """
        rows = edge[:, None]
        energy = scenario.energy
        expected = scenario.expected_losses[model]
        latency = scenario.latencies[rows, model]
        idle = offline | shed
        expected[idle] = 0.0
        latency[idle] = 0.0
        emissions = energy.slot_emissions_kg_batch(
            model, served, switched, energy.transfer_table_kwh()[rows, model]
        )
        return cls(
            t, edge, model, switched, offline, shed, arrivals, served,
            expected_loss=expected, slot_loss=slot_loss, latency=latency,
            switch_cost=np.where(switched, switch_costs[:, None], 0.0),
            emissions_kg=emissions, correct=correct,
        )


def offline_outcome(
    t: int, edge: int, model: int, *, arrivals: int = 0
) -> EdgeSlotOutcome:
    """A zero-cost offline outcome for an edge that served nothing at ``t``.

    Used for edge outages, for the serve tier's dead shards and inactive
    (reconfigured-out) edges, and for worker-side offline replay after a
    restart: ``arrivals`` are counted as dropped-offline so the accounting
    equation ``in == served + shed + offline`` stays exact.
    """
    return EdgeSlotOutcome(
        t=t, edge=edge, model=int(model), switched=False,
        offline=True, shed=False, arrivals=int(arrivals), served=0,
    )


class EdgeSlotKernel:
    """One edge's slot step: select, resolve downloads, infer, feed back.

    Owns everything the simulator used to keep per edge — the selection
    policy, the data-draw RNG stream, download-retry state, and the delayed
    feedback queue — so the simulator loop, a serve shard's per-edge body
    and a respawned worker's catch-up execute identical logic.
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: SelectionPolicy,
        edge: int,
        *,
        data_rng: np.random.Generator,
        class_indices: list[np.ndarray] | None = None,
        injector: FaultInjector | None = None,
        tracer: Tracer | None = None,
        label_delay: int = 0,
        live_inference: bool = False,
    ) -> None:
        self.scenario = scenario
        self.policy = policy
        self.edge = int(edge)
        self.data_rng = data_rng
        self.class_indices = class_indices
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.label_delay = label_delay
        self.live_inference = live_inference
        self.pool_size = scenario.profiles[0].pool_size
        # The scenario's cached per-model means, as floats a step indexes.
        self.expected_losses = scenario.expected_losses.tolist()
        self.switch_cost = float(scenario.effective_switch_costs()[edge])
        self.previous_model = -1
        self.retry_wait = 0
        self.retry_backoff = 0
        self.retry_attempts = 0
        # Delayed label feedback (paper Step 2.3): (slot, model, loss) of
        # observations still in flight when ``label_delay > 0``.
        self.pending_feedback: list[tuple[int, int, float]] = []

    def step(self, t: int, count: int, shed: bool = False) -> EdgeSlotOutcome:
        """Execute slot ``t`` with ``count`` arrivals; return the outcome.

        ``shed=True`` records a backpressure-shed slot: the policy still
        advances its block schedule via ``observe_lost``, but nothing runs.
        """
        policy = self.policy
        tracer = self.tracer
        tracing = tracer.enabled
        model = policy.select(t)

        if shed:
            # The payload was dropped at the queue; keep Algorithm 1's block
            # accounting consistent by routing the slot through the lost-
            # feedback path (blocks must still close on schedule).
            policy.observe_lost(t, model)
            return EdgeSlotOutcome(
                t=t, edge=self.edge, model=int(model), switched=False,
                offline=False, shed=True, arrivals=int(count), served=0,
            )

        injector = self.injector
        if injector is not None and injector.edge_offline(t, self.edge):
            # Edge down: draw the slot's sample indices anyway so RNG
            # streams stay aligned with the unfaulted run, then drop the
            # workload unserved — no inference, no emissions, no feedback.
            draw_pool_indices(
                self.scenario, self.edge, count, self.data_rng,
                self.pool_size, self.class_indices,
            )
            policy.observe_lost(t, model)
            if tracing:
                tracer.emit(
                    FaultInjectedEvent(t=t, kind="edge_outage", edge=self.edge)
                )
            return offline_outcome(t, self.edge, model, arrivals=count)

        serve = model if injector is None else self.resolve_download(t, model)
        switched = bool(serve != self.previous_model)
        if switched and tracing:
            tracer.emit(
                ModelSwitchEvent(
                    t=t,
                    edge=self.edge,
                    previous_model=self.previous_model,
                    model=int(serve),
                    switch_cost=self.switch_cost,
                )
            )
        self.previous_model = int(serve)

        idx = draw_pool_indices(
            self.scenario, self.edge, count, self.data_rng,
            self.pool_size, self.class_indices,
        )
        profile = self.scenario.profiles[serve]
        losses = self.sample_losses(profile, idx)
        slot_loss = float(losses.mean()) if idx.size else 0.0
        latency = float(self.scenario.latencies[self.edge, serve])
        if serve != model:
            # The chosen model never ran, so its loss is unobservable this
            # slot (bandit feedback).
            policy.observe_lost(t, model)
        elif idx.size == 0:
            # An empty slot (e.g. ingress deferred every request) offers no
            # loss sample either.
            policy.observe_lost(t, model)
        elif injector is not None and injector.feedback_lost(t, self.edge):
            policy.observe_lost(t, model)
            if tracing:
                tracer.emit(
                    FeedbackLostEvent(t=t, edge=self.edge, model=int(model))
                )
        elif self.label_delay == 0:
            policy.observe(t, model, slot_loss + latency)
        else:
            self.pending_feedback.append((t, model, slot_loss + latency))

        emissions_kg = float(
            self.scenario.energy.slot_emissions_kg(
                self.edge, serve, count, switched
            )
        )
        return EdgeSlotOutcome(
            t=t, edge=self.edge, model=int(serve), switched=switched,
            offline=False, shed=False, arrivals=int(count), served=int(count),
            expected_loss=self.expected_losses[serve], slot_loss=slot_loss,
            latency=latency, switch_cost=self.switch_cost if switched else 0.0,
            emissions_kg=emissions_kg,
            correct=float(profile.correct_per_sample[idx].sum()),
        )

    def resolve_download(self, t: int, model: int) -> int:
        """The model that serves online slot ``t`` when the policy chose ``model``.

        A switch requires a download, which the fault plan can fail: the
        edge then keeps its hosted model and retries under capped
        exponential backoff.  Initial provisioning never fails, and serving
        the chosen model clears the retry state.  This is the one retry
        machine: :meth:`step` runs it on every online slot of a faulted
        run, and the columnar engine (:class:`ShardSlotKernel`) walks it
        over a block's slots until the block's model first serves.  The
        caller records the served model as :attr:`previous_model`.
        """
        hosted = self.previous_model
        if hosted >= 0 and model != hosted:
            if self.retry_wait > 0:
                self.retry_wait -= 1
                return hosted
            injector = self.injector
            if injector.download_failed(t, self.edge):
                self.retry_attempts += 1
                cap = injector.backoff_cap(t, self.edge)
                self.retry_backoff = min(max(2 * self.retry_backoff, 1), cap)
                self.retry_wait = self.retry_backoff
                tracer = self.tracer
                if tracer.enabled:
                    tracer.emit(
                        FaultInjectedEvent(
                            t=t, kind="download_failure", edge=self.edge
                        )
                    )
                    tracer.emit(
                        RetryEvent(
                            t=t,
                            edge=self.edge,
                            hosted_model=hosted,
                            target_model=int(model),
                            attempt=self.retry_attempts,
                            backoff_slots=self.retry_backoff,
                        )
                    )
                return hosted
        self.retry_wait = 0
        self.retry_backoff = 0
        self.retry_attempts = 0
        return model

    def step_offline(self, t: int, count: int) -> EdgeSlotOutcome:
        """Execute slot ``t`` as a missed (offline) slot with real arrivals.

        The restart path of the sharded tier replays a dead worker's
        missed slots through this: the selection policy advances exactly
        as it would through an :class:`~repro.faults.plan.EdgeOutage`
        (``select`` then ``observe_lost``, keeping Algorithm 1's block
        schedule closing on time), the ``count`` arrivals are recorded as
        dropped-offline so ``in == served + shed + offline`` stays exact,
        and nothing runs — no draws, no emissions, no feedback.
        """
        model = self.policy.select(t)
        self.policy.observe_lost(t, model)
        return offline_outcome(t, self.edge, model, arrivals=count)

    def deliver_due(self, due_slot: int) -> None:
        """Deliver all queued slot losses whose slot is <= ``due_slot``."""
        pending = self.pending_feedback
        while pending and pending[0][0] <= due_slot:
            slot, model, loss = pending.pop(0)
            self.policy.observe(slot, model, loss)

    def sample_losses(self, profile, idx: np.ndarray) -> np.ndarray:
        """Per-sample losses for the drawn pool indices.

        The memoized table lookup is exact; ``live_inference=True``
        recomputes the forward pass on the drawn samples for validation
        (requires the scenario to carry the shared data pool).
        """
        if self.live_inference:
            if profile.network is None:
                raise ValueError(
                    f"profile {profile.name!r} has no network for live inference"
                )
            if self.scenario.x_pool is None or self.scenario.y_pool is None:
                raise ValueError("scenario carries no data pool for live inference")
            proba = profile.network.predict_proba(self.scenario.x_pool[idx])
            return squared_label_loss(proba, self.scenario.y_pool[idx])
        return profile.loss_per_sample[idx]

    def state_dict(self) -> dict[str, object]:
        """Control state as plain data; the config rebuilds everything else.

        The policy's :meth:`~repro.policies.selection.SelectionPolicy.state_dict`
        and the data stream's bit-generator state, not the objects.
        """
        return {
            "policy": self.policy.state_dict(),
            "data_rng": self.data_rng.bit_generator.state,
            "previous_model": self.previous_model,
            "retry_wait": self.retry_wait,
            "retry_backoff": self.retry_backoff,
            "retry_attempts": self.retry_attempts,
            "pending_feedback": list(self.pending_feedback),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore :meth:`state_dict`'s output into this kernel's own objects.

        The policy and the data stream stay the objects the kernel was
        built with (and bound to its tracer); only their state changes.
        """
        self.policy.load_state(state["policy"])
        self.data_rng.bit_generator.state = state["data_rng"]
        self.previous_model = int(state["previous_model"])
        self.retry_wait = int(state["retry_wait"])
        self.retry_backoff = int(state["retry_backoff"])
        self.retry_attempts = int(state["retry_attempts"])
        self.pending_feedback = list(state["pending_feedback"])


def _first_serving_slot(
    kernel: EdgeSlotKernel, model: int, a: int, lo: int, hi: int, idle: np.ndarray
) -> int:
    """The first column of ``[lo, hi)`` where the block's ``model`` serves, or ``hi``.

    Column ``j`` is slot ``a + j``.  Walks the edge's download retry machine
    (:meth:`EdgeSlotKernel.resolve_download`) from the piece's first slot,
    exactly as the per-edge step runs it on each online slot: a
    ``retry_wait`` left over from an earlier block or span can delay the
    switch even where the failure mask has no hit.  Idle (shed or offline)
    slots leave the retry state untouched, because the step returns before
    its download logic.  Once the model serves, the rest of the block
    serves it with no further switch, so the walk stops there.
    """
    for j in range(lo, hi):
        if not idle[j] and kernel.resolve_download(a + j, model) == model:
            return j
    return hi


class ShardSlotKernel:
    """A set of edges stepped over spans of slots: the columnar Algorithm-1 engine.

    Built over :class:`EdgeSlotKernel` objects in ascending edge order.  All
    state stays in those kernels and their policies, so their
    ``state_dict``/``load_state`` are the shard's, and an edge can pass
    between this class and its own :meth:`EdgeSlotKernel.step` at any slot,
    mid-block included.  One :meth:`step` call steps the slots ``[a, b)``
    of every edge and returns their one record: the vectorized simulator
    steps its whole horizon as one span, a serve worker each run of
    released slots.  One of two bodies runs, chosen once from the kernels:

    * the *engine*, when every policy is exactly
      :class:`~repro.core.model_selection.OnlineModelSelection` and no
      kernel has an enabled tracer or a label delay.  Theorem-1 block
      lengths are fixed before the run, so it draws each edge's pool
      indices for the span with one call (offline slots draw, shed slots
      do not; class mixes draw slot by slot), opens the span's blocks in
      rounds — round ``r`` holds each edge's ``r``-th opening, one batched
      solve (:func:`~repro.core.model_selection.open_blocks`) — and
      gathers and folds each piece of a block inside the span once
      (``observe_block``).  An edge's earlier block closes inside the span
      before its next opening reads the estimator, so the rounds reorder
      nothing it observes.  Rows follow the step's rules: shed before
      offline; a shed row draws nothing, records a lost slot, never
      switches and leaves the retry state alone; an offline row draws,
      keeps the chosen model and serves nothing; an online row serves the
      hosted model until a failed download's retry succeeds; zero-arrival
      and feedback-lost rows record lost slots.  DESIGN.md §10.1 gives the
      argument for bit equality;
    * otherwise the per-edge loop, the reference: at each slot of the span,
      the slot's batched block openings, then each edge's
      :meth:`EdgeSlotKernel.step`, delivering its due labels right after.
    """

    def __init__(self, kernels: Sequence[EdgeSlotKernel]) -> None:
        self.kernels = list(kernels)
        self._edges = np.array([kernel.edge for kernel in self.kernels])
        policies = [kernel.policy for kernel in self.kernels]
        self.columnar = all(
            type(kernel.policy) is OnlineModelSelection
            and not kernel.tracer.enabled
            and kernel.label_delay == 0
            for kernel in self.kernels
        )
        self._scenario = scenario = self.kernels[0].scenario
        if not self.columnar:
            # The per-edge loop binds the policies it opens blocks for.
            self._openings = block_openings(policies)
            return
        # Each edge's block boundaries: block ``k`` is ``[bounds[k], bounds[k + 1])``.
        self._bounds = [
            [*policy.schedule.starts.tolist(), scenario.horizon] for policy in policies
        ]
        self._faulted = [
            kernel.injector is not None and kernel.injector.has_edge_faults
            for kernel in self.kernels
        ]
        self._switch_costs = np.array([kernel.switch_cost for kernel in self.kernels])
        self._latency_rows = [
            scenario.latencies[kernel.edge].tolist() for kernel in self.kernels
        ]
        self._loss_tables = [p.loss_per_sample for p in scenario.profiles]
        self._correct_tables = [p.correct_per_sample for p in scenario.profiles]
        # Draws are held in the smallest dtype that indexes the pool.
        self._index_dtype = np.min_scalar_type(self.kernels[0].pool_size - 1)

    def state_dicts(self) -> dict[int, dict[str, object]]:
        """Each edge kernel's ``state_dict``, keyed by edge."""
        return {kernel.edge: kernel.state_dict() for kernel in self.kernels}

    def step(self, a: int, counts: np.ndarray, shed: np.ndarray) -> SlotOutcomes:
        """Step every edge through the slots from ``a``; return the span's record.

        ``counts`` and ``shed`` are ``(edges, slots)`` arrays aligned with
        :attr:`kernels`: each edge-slot's arrivals, and whether its payload
        was shed at the queue.  The record covers ``counts.shape[1]`` slots.
        """
        if self.columnar:
            return self._engine(a, counts, shed)
        records = []
        for t, row, marks in zip(range(a, a + counts.shape[1]), counts.T, shed.T):
            group = self._openings.get(t)
            if group is not None:
                open_blocks(group)
            outcomes = []
            for kernel, count, mark in zip(self.kernels, row.tolist(), marks.tolist()):
                outcomes.append(kernel.step(t, count, shed=mark))
                if kernel.label_delay:
                    kernel.deliver_due(t - kernel.label_delay)
            records.append(SlotOutcomes.from_rows(outcomes))
        return SlotOutcomes.concat(records)

    def _draw(self, kernel: EdgeSlotKernel, counts, shed, total: int) -> np.ndarray:
        """The edge's pool indices for the span's non-shed slots, in slot order."""
        if kernel.class_indices is None:
            if not total:
                return np.empty(0, dtype=self._index_dtype)
            draws = kernel.data_rng.integers(0, kernel.pool_size, size=total)
            return draws.astype(self._index_dtype)
        parts = [
            draw_pool_indices(
                self._scenario, kernel.edge, count, kernel.data_rng,
                kernel.pool_size, kernel.class_indices,
            )
            for count, gone in zip(counts.tolist(), shed.tolist())
            if not gone
        ]
        return np.concatenate([np.empty(0, dtype=int), *parts]).astype(
            self._index_dtype
        )

    def _engine(self, a: int, counts: np.ndarray, shed: np.ndarray) -> SlotOutcomes:
        """The columnar body: every edge's pieces of blocks in the span."""
        kernels = self.kernels
        num_edges, width = counts.shape
        b = a + width
        offline = feedback_lost = None
        if any(self._faulted):
            offline = np.zeros((num_edges, width), dtype=bool)
            feedback_lost = np.zeros((num_edges, width), dtype=bool)
            for i, kernel in enumerate(kernels):
                if self._faulted[i]:
                    offline[i] = kernel.injector.offline_mask[a:b, kernel.edge]
                    feedback_lost[i] = kernel.injector.feedback_lost_mask[
                        a:b, kernel.edge
                    ]
            # Shed is checked before offline: a shed row is not offline.
            offline &= ~shed
        idle = shed if offline is None else shed | offline
        # Columns without draws (shed, or no arrivals), and columns with no
        # loss to observe (those, offline ones and dropped feedback).
        empty = shed | (counts == 0)
        unheard = empty if offline is None else empty | offline | feedback_lost
        idle_rows, sparse, deaf = (
            mask.any(axis=1).tolist() for mask in (idle, empty, unheard)
        )
        # Column ``j`` of edge ``i``'s draws is ``offsets[i, j]:offsets[i, j + 1]``.
        offsets = np.zeros((num_edges, width + 1), dtype=np.int64)
        np.cumsum(np.where(shed, 0, counts), axis=1, out=offsets[:, 1:])
        draws = [
            self._draw(kernel, counts[i], shed[i], int(offsets[i, -1]))
            for i, kernel in enumerate(kernels)
        ]
        model = np.empty((num_edges, width), dtype=np.int64)
        switched = np.zeros((num_edges, width), dtype=bool)
        slot_loss = np.zeros((num_edges, width))
        correct = np.zeros((num_edges, width))
        profiles = self._scenario.profiles
        loss_tables, correct_tables = self._loss_tables, self._correct_tables
        # ``np.add.reduce`` is the routine inside ``ndarray.sum``/``mean``
        # minus layers of Python wrapper.
        reduce_add = np.add.reduce

        def fill(i: int, n: int, lo: int, hi: int) -> None:
            """Edge ``i``'s slot losses and correct counts over columns ``[lo, hi)``.

            Model ``n`` serves them.  A slot loss is ``np.add.reduce`` over
            the slot's contiguous slice of one gather, divided by the count:
            the step's ``mean``, the same pairwise sum over the same values.
            Correct counts sum 0/1 indicators, exact integers in any order,
            so ``reduceat`` gives them.  Offline columns are computed too and
            zeroed with the span, except under live inference, whose forward
            passes are worth skipping.
            """
            bounds = offsets[i, lo : hi + 1]
            base, stop = int(bounds[0]), int(bounds[-1])
            if stop == base:
                return
            # Gathers index fastest with intp: widen the piece's draws once.
            idx = draws[i][base:stop].astype(np.intp)
            cuts = bounds - base
            points = cuts.tolist()
            row_loss, row_correct = slot_loss[i], correct[i]
            kernel = kernels[i]
            if kernel.live_inference:
                for j, s, e in zip(range(lo, hi), points, points[1:]):
                    if e > s and not idle[i, j]:
                        sample = idx[s:e]
                        losses = kernel.sample_losses(profiles[n], sample)
                        row_loss[j] = reduce_add(losses) / losses.size
                        row_correct[j] = reduce_add(correct_tables[n][sample])
                return
            filled, starts = slice(None), cuts[:-1]
            if sparse[i]:
                # Columns without draws keep their zeros.
                filled = cuts[1:] > starts
                starts = starts[filled]
            row_correct[lo:hi][filled] = np.add.reduceat(correct_tables[n][idx], starts)
            losses = loss_tables[n][idx]
            row_loss[lo:hi] = [
                reduce_add(losses[s:e]) / (e - s) if e > s else 0.0
                for s, e in zip(points, points[1:])
            ]

        def piece(i: int, block: int, m: int, lo: int, hi: int) -> None:
            """Step edge ``i`` over columns ``[lo, hi)`` of ``block``, hosting ``m``."""
            kernel = kernels[i]
            hosted = kernel.previous_model
            first = lo
            if self._faulted[i]:
                first = _first_serving_slot(kernel, m, a, lo, hi, idle[i])
            elif idle_rows[i]:
                online = np.flatnonzero(~idle[i, lo:hi])
                first = lo + int(online[0]) if online.size else hi
            model[i, lo:hi] = m
            if first > lo and hosted >= 0:
                # Until ``first`` an online slot still serves the hosted
                # model; an idle slot keeps the chosen one.
                model[i, lo:first] = np.where(idle[i, lo:first], m, hosted)
                fill(i, hosted, lo, first)
            if first < hi:
                # A switch is measured against the last *served* model.
                kernel.previous_model = m
                switched[i, first] = m != hosted
                fill(i, m, first, hi)
            observed = slot_loss[i, first:hi] + self._latency_rows[i][m]
            if deaf[i]:
                observed = observed[~unheard[i, first:hi]]
            feedback = observed.tolist()
            kernel.policy.observe_block(block, feedback, lost=hi - lo - len(feedback))

        rounds: list[list] = []
        for i, kernel in enumerate(kernels):
            bounds = self._bounds[i]
            block = bisect_right(bounds, a) - 1
            if bounds[block] < a:
                # The block open at ``a`` was opened by an earlier step.
                end = min(bounds[block + 1], b)
                piece(i, block, kernel.policy.block_model(block), 0, end - a)
                block += 1
            for r, k in enumerate(range(block, bisect_left(bounds, b))):
                if r == len(rounds):
                    rounds.append([])
                rounds[r].append((i, kernel.policy, k, bounds[k]))
        for group in rounds:
            for m, (i, _, k, start) in zip(open_blocks(group), group):
                end = min(self._bounds[i][k + 1], b)
                piece(i, k, m, start - a, end - a)
        served = np.where(idle, 0, counts) if any(idle_rows) else counts
        if offline is not None:
            slot_loss[offline] = 0.0
            correct[offline] = 0.0
        # Pricing reads neither the draws nor the masks: free them before
        # it allocates.
        del draws, offsets, idle, empty, unheard, feedback_lost
        never = np.broadcast_to(False, counts.shape)
        return SlotOutcomes.from_columns(
            a, self._edges, self._scenario, self._switch_costs,
            model=model, switched=switched,
            offline=never if offline is None else offline,
            shed=shed, arrivals=counts, served=served, slot_loss=slot_loss,
            correct=correct,
        )


class TradingSlotKernel:
    """The system-level trading step run once per slot.

    Owns Algorithm 2's policy alongside the market and ledger, plus the
    deferred-intent state used when market faults block execution.  The
    running emissions aggregates reproduce the simulator's exact context
    arithmetic (``prev_emissions`` and the running mean are updated *after*
    the slot's decision, matching the paper's information structure).
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: TradingPolicy,
        market: CarbonMarket,
        ledger: AllowanceLedger,
        *,
        injector: FaultInjector | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.scenario = scenario
        self.policy = policy
        self.market = market
        self.ledger = ledger
        self.injector = injector
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Trade intent deferred by market outages/rejections, reconciled at
        # the next executable slot (bounded by the per-slot trade bound).
        self.pending_buy = 0.0
        self.pending_sell = 0.0
        self.prev_emissions = 0.0
        self.emissions_sum = 0.0
        # Live-reconfiguration multiplier on the per-slot trade bound: the
        # bound scales with the active-fleet fraction so a half-size fleet
        # trades at half the volume cap.  Exactly 1.0 for unreconfigured
        # runs, so the fast path below keeps bit parity with the simulator.
        self.fleet_scale = 1.0

    @property
    def trade_bound(self) -> float:
        """The per-slot trade bound under the current fleet scale."""
        bound = self.scenario.trade_bound
        if self.fleet_scale == 1.0:  # noqa: RPL003 -- exact sentinel, set by assignment
            return bound
        return bound * self.fleet_scale

    def rescale_fleet(self, factor: float) -> None:
        """Apply a fleet-size change event: active count scaled by ``factor``.

        Rescales the trade bound, clips deferred intent to the new bound,
        and forwards the event to the trading policy so dual state scales
        deterministically.  ``factor == 1.0`` is an exact no-op — the
        contract behind no-op reconfiguration plans staying bit-identical
        to unreconfigured runs.
        """
        if factor <= 0.0:
            raise ValueError(f"fleet factor must be positive, got {factor}")
        if factor == 1.0:  # noqa: RPL003 -- exact sentinel no-op contract
            return
        self.fleet_scale *= factor
        bound = self.trade_bound
        self.pending_buy = min(self.pending_buy, bound)
        self.pending_sell = min(self.pending_sell, bound)
        self.policy.rescale_fleet(factor)

    def context(self, t: int) -> TradingContext:
        """The information set available to the policy at slot ``t``."""
        scenario = self.scenario
        market = self.market
        snapshot = self.ledger.snapshot()
        prev_buy = market.buy_price(t - 1) if t > 0 else market.buy_price(0)
        prev_sell = market.sell_price(t - 1) if t > 0 else market.sell_price(0)
        prev_emissions = self.prev_emissions if t > 0 else 0.0
        mean_emissions = (
            self.emissions_sum / t if t > 0 else scenario.estimated_slot_emissions()
        )
        return TradingContext(
            t=t,
            horizon=scenario.horizon,
            cap=scenario.config.carbon_cap_kg,
            buy_price=market.buy_price(t),
            sell_price=market.sell_price(t),
            prev_buy_price=prev_buy,
            prev_sell_price=prev_sell,
            prev_emissions=prev_emissions,
            cumulative_emissions=snapshot.cumulative_emissions,
            holdings=snapshot.holdings,
            mean_slot_emissions=mean_emissions,
            trade_bound=self.trade_bound,
        )

    def step(self, t: int, slot_emissions: float) -> tuple[float, float, float]:
        """Decide, execute (or defer), and observe slot ``t``'s trade.

        Returns ``(bought, sold, cost)`` as realized at the market —
        all zero when a fault blocked execution.
        """
        tracer = self.tracer
        bound = self.trade_bound
        context = self.context(t)
        decision = self.policy.decide(context)
        decision = TradeDecision(
            buy=min(max(decision.buy, 0.0), bound),
            sell=min(max(decision.sell, 0.0), bound),
        )
        injector = self.injector
        if injector is not None and injector.trade_blocked(t):
            # Market unreachable or order bounced: nothing executes, the
            # ledger records realized (zero) volumes, and the intent carries
            # over — bounded by the per-slot trade bound, so long outages
            # shed excess rather than accumulate it.  The dual update sees
            # only the realized trade.
            self.pending_buy = min(self.pending_buy + decision.buy, bound)
            self.pending_sell = min(self.pending_sell + decision.sell, bound)
            self.ledger.record_rejection(decision.buy, decision.sell)
            self.ledger.record(slot_emissions, 0.0, 0.0)
            self.policy.observe(
                context, TradeDecision(buy=0.0, sell=0.0), slot_emissions
            )
            if tracer.enabled:
                tracer.emit(
                    TradeRejectedEvent(
                        t=t,
                        buy=decision.buy,
                        sell=decision.sell,
                        pending_buy=self.pending_buy,
                        pending_sell=self.pending_sell,
                    )
                )
            realized = (0.0, 0.0, 0.0)
        else:
            if self.pending_buy > 0.0 or self.pending_sell > 0.0:
                executed = TradeDecision(
                    buy=min(decision.buy + self.pending_buy, bound),
                    sell=min(decision.sell + self.pending_sell, bound),
                )
                self.pending_buy = 0.0
                self.pending_sell = 0.0
            else:
                executed = decision
            trade = self.market.execute(t, executed.buy, executed.sell)
            self.ledger.record(slot_emissions, executed.buy, executed.sell)
            self.policy.observe(context, executed, slot_emissions)
            realized = (trade.bought, trade.sold, trade.cost)
        self.emissions_sum += slot_emissions
        self.prev_emissions = float(slot_emissions)
        return realized

    def state_dict(self) -> dict[str, object]:
        """Picklable control state (the scenario itself is reattachable)."""
        return {
            "policy": self.policy,
            "market": self.market,
            "ledger": self.ledger,
            "pending_buy": self.pending_buy,
            "pending_sell": self.pending_sell,
            "prev_emissions": self.prev_emissions,
            "emissions_sum": self.emissions_sum,
            "fleet_scale": self.fleet_scale,
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore control state captured by :meth:`state_dict`."""
        self.policy = state["policy"]
        self.market = state["market"]
        self.ledger = state["ledger"]
        self.pending_buy = float(state["pending_buy"])
        self.pending_sell = float(state["pending_sell"])
        self.prev_emissions = float(state["prev_emissions"])
        self.emissions_sum = float(state["emissions_sum"])
        # Absent in snapshots written before live reconfiguration existed.
        self.fleet_scale = float(state.get("fleet_scale", 1.0))


#: Slots the fold sums per pass over a multi-slot record.
_SLOTS_PER_PASS = 128

#: Result arrays the fold fills with a column's per-slot sum across edges
#: (``accuracy`` holds the correct count until the fold divides it).
_EDGE_SUMS = {
    "expected_inference": "expected_loss",
    "realized_loss": "slot_loss",
    "compute_cost": "latency",
    "switching_cost": "switch_cost",
    "emissions": "emissions_kg",
    "accuracy": "correct",
}


class SlotAggregator:
    """The one fold of slot records into result arrays, plus the trade step.

    Every runtime folds through this class: the scalar simulator loop one
    slot at a time, the vectorized path its whole horizon at once, and the
    serve tier's parent each slot its workers report.  It alone writes the
    per-slot result arrays.  Holds them, their snapshot/restore halves, and
    the final :class:`~repro.sim.results.SimulationResult` assembly.
    """

    def __init__(self, scenario: Scenario, trading_kernel: TradingSlotKernel) -> None:
        self.scenario = scenario
        self.trading_kernel = trading_kernel
        horizon, num_edges = scenario.horizon, scenario.num_edges
        per_slot = (*_EDGE_SUMS, "bought", "sold", "trading_cost", "arrivals_total")
        self._arrays = {name: np.zeros(horizon) for name in per_slot}
        self._arrays["selections"] = np.zeros((horizon, num_edges), dtype=int)
        self._arrays["switches"] = np.zeros((horizon, num_edges), dtype=bool)

    def fold(self, t: int, record: SlotOutcomes) -> None:
        """Fold ``record``'s slots from ``t``, then step the trading kernel on each.

        A slot's costs are its columns summed in ascending edge order from
        ``0.0``, the float-addition order the golden digests pin.
        ``np.add.accumulate`` along the edge axis adds in exactly that order
        at any slot count; a reduction does not (numpy sums a single slot's
        column pairwise).  Offline rows add exact zeros.  The trading kernel
        then steps once per slot, in slot order, on the slot's emissions.
        """
        arrays = self._arrays
        stop = t + record.num_slots
        arrays["selections"][t:stop] = record.model.T
        arrays["switches"][t:stop] = record.switched.T
        # A bounded span of slots per pass keeps the accumulates' scratch
        # small when the record covers a whole horizon.
        for lo in range(0, record.num_slots, _SLOTS_PER_PASS):
            span = slice(lo, lo + _SLOTS_PER_PASS)
            for name, column in _EDGE_SUMS.items():
                running = np.add.accumulate(getattr(record, column)[:, span], axis=0)
                arrays[name][t:stop][span] = running[-1]
        served = record.served.sum(axis=0)
        arrays["arrivals_total"][t:stop] = served
        accuracy = arrays["accuracy"][t:stop]
        np.divide(accuracy, served, out=accuracy, where=served > 0)
        accuracy[served == 0] = np.nan  # a slot that served nothing
        step = self.trading_kernel.step
        bought, sold, cost = arrays["bought"], arrays["sold"], arrays["trading_cost"]
        emissions = arrays["emissions"][t:stop].tolist()
        for s, slot_emissions in enumerate(emissions, start=t):
            bought[s], sold[s], cost[s] = step(s, slot_emissions)

    def partial_arrays(self, next_slot: int) -> dict[str, np.ndarray]:
        """Snapshot copies of the arrays' completed prefix."""
        return {
            name: array[:next_slot].copy()
            for name, array in self._arrays.items()
        }

    def load_arrays(self, saved: dict[str, np.ndarray]) -> None:
        """Restore the completed prefix captured by :meth:`partial_arrays`."""
        for name, prefix in saved.items():
            self._arrays[name][: len(prefix)] = prefix

    def result(self, label: str) -> SimulationResult:
        """Assemble the completed run's :class:`SimulationResult`."""
        scenario, arrays = self.scenario, self._arrays
        return SimulationResult(
            label=label,
            horizon=scenario.horizon,
            num_edges=scenario.num_edges,
            carbon_cap=scenario.config.carbon_cap_kg,
            expected_inference_cost=arrays["expected_inference"],
            realized_inference_loss=arrays["realized_loss"],
            compute_cost=arrays["compute_cost"],
            switching_cost=arrays["switching_cost"],
            emissions=arrays["emissions"],
            bought=arrays["bought"],
            sold=arrays["sold"],
            trading_cost=arrays["trading_cost"],
            buy_prices=scenario.prices.buy.copy(),
            sell_prices=scenario.prices.sell.copy(),
            arrivals=arrays["arrivals_total"],
            accuracy=arrays["accuracy"],
            selections=arrays["selections"],
            switches=arrays["switches"],
        )
