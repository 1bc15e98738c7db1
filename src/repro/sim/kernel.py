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

A serve worker steps its shard through :class:`ShardSlotKernel`, one call
per slot over the shard's edge kernels.  A clean shard of plain
Algorithm-1 edges runs as one columnar pass that writes the record's
columns directly and draws each edge's pool indices once per fed run of
slots; any other shard runs the per-edge :meth:`EdgeSlotKernel.step`
loop, which stays the reference.  :meth:`SlotOutcomes.from_columns` prices
the columnar pass's rows and the vectorized path's whole horizon alike.

State is explicit: each kernel exposes ``state_dict()`` / ``load_state()``
so a serve snapshot can capture a quiescent slot boundary and a restored
process can resume mid-horizon without replaying.
"""

from __future__ import annotations

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
    scalar loop builds one-slot records from kernel rows, a
    :class:`ShardSlotKernel` writes its one-slot record column by column
    (or from rows on its per-edge body), and the vectorized simulator
    builds one for the whole horizon from views of its matrices.
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
        losses = self._sample_losses(profile, idx)
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
        run, and the vectorized simulator walks it over a block's slots
        until the block's model first serves.  The caller records the
        served model as :attr:`previous_model`.
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

    def _sample_losses(self, profile, idx: np.ndarray) -> np.ndarray:
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
        """Picklable control state (the scenario itself is reattachable)."""
        return {
            "policy": self.policy,
            "data_rng": self.data_rng,
            "previous_model": self.previous_model,
            "retry_wait": self.retry_wait,
            "retry_backoff": self.retry_backoff,
            "retry_attempts": self.retry_attempts,
            "pending_feedback": list(self.pending_feedback),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore control state captured by :meth:`state_dict`."""
        self.policy = state["policy"]
        self.data_rng = state["data_rng"]
        self.previous_model = int(state["previous_model"])
        self.retry_wait = int(state["retry_wait"])
        self.retry_backoff = int(state["retry_backoff"])
        self.retry_attempts = int(state["retry_attempts"])
        self.pending_feedback = list(state["pending_feedback"])


class ShardSlotKernel:
    """One shard's slot step: every edge of the shard in one call per slot.

    Built over the shard's :class:`EdgeSlotKernel` objects, in ascending
    edge order, after any ``load_state`` on them: it binds their policies.
    All state stays in those kernels and their policies, so their
    ``state_dict``/``load_state`` are the shard's.  Each :meth:`step` first
    opens every block that starts at the slot with one batched solve
    (:func:`~repro.core.model_selection.open_blocks`), then runs one of two
    bodies, chosen once from the kernels:

    * the *columnar* body, when every policy is exactly
      :class:`~repro.core.model_selection.OnlineModelSelection` and no
      kernel has a fault injector, an enabled tracer, a label delay, live
      inference or class-mix draws.  It makes one array pass for the whole
      shard and writes the record's columns directly, bit for bit what the
      per-edge steps write, and leaves every kernel and policy in the state
      they leave.  Pool indices are drawn at :meth:`feed` time, once per
      edge for every run of slots fed together;
    * otherwise the per-edge :meth:`EdgeSlotKernel.step` loop, the
      reference, which draws at each step and delivers due labels right
      after each edge's step.
    """

    def __init__(self, kernels: Sequence[EdgeSlotKernel]) -> None:
        self.kernels = list(kernels)
        self._edges = np.array([kernel.edge for kernel in self.kernels])
        self._policies = [kernel.policy for kernel in self.kernels]
        self._openings = block_openings(self._policies, by_slot=True)
        self.columnar = all(
            type(kernel.policy) is OnlineModelSelection
            and kernel.injector is None
            and not kernel.tracer.enabled
            and kernel.label_delay == 0
            and not kernel.live_inference
            and kernel.class_indices is None
            for kernel in self.kernels
        )
        self._scenario = scenario = self.kernels[0].scenario
        self._pool_size = self.kernels[0].pool_size
        self._switch_costs = np.array([kernel.switch_cost for kernel in self.kernels])
        # Every model's per-sample table end to end: model ``n``'s entry
        # for pool index ``k`` sits at ``n * pool_size + k``.
        self._losses = np.concatenate([p.loss_per_sample for p in scenario.profiles])
        self._correct = np.concatenate(
            [p.correct_per_sample for p in scenario.profiles]
        )
        # Per edge: the pool indices drawn at feed time, and how many of
        # them the steps have taken so far.
        self._drawn = [np.empty(0, dtype=np.int64) for _ in self.kernels]
        self._taken = [0] * len(self.kernels)

    def feed(self, counts: Sequence[int]) -> None:
        """Draw the pool indices of the events just queued on each edge.

        ``counts`` holds, aligned with :attr:`kernels`, how many events
        were queued on each edge for steps to come; shed markers count
        none.  The columnar body draws each edge's events with one
        ``integers`` call on its data stream, and its steps take them in
        FIFO order.  One call for ``a + b`` indices returns the ``a`` and
        ``b`` of two per-slot calls, concatenated, and leaves the stream in
        the same state, so each edge sees exactly the per-slot draws.  The
        per-edge body draws at its steps and ignores this.
        """
        if not self.columnar:
            return
        for i, count in enumerate(counts):
            if count:
                kernel = self.kernels[i]
                fresh = kernel.data_rng.integers(0, kernel.pool_size, size=count)
                drawn, taken = self._drawn[i], self._taken[i]
                if taken < drawn.size:
                    fresh = np.concatenate((drawn[taken:], fresh))
                self._drawn[i] = fresh
                self._taken[i] = 0

    def state_dicts(self) -> dict[int, dict[str, object]]:
        """Each edge kernel's ``state_dict``, keyed by edge.

        Raises ``RuntimeError`` when an edge still holds draws fed but not
        yet stepped: its data stream would be captured ahead of its kernel.
        The serve tier captures state only at quiescent slot boundaries,
        where every fed event has been stepped.
        """
        held = [
            kernel.edge
            for kernel, drawn, taken in zip(self.kernels, self._drawn, self._taken)
            if taken < drawn.size
        ]
        if held:
            raise RuntimeError(
                f"edges {held} hold pool draws fed but not stepped; "
                "their state can only be captured at a quiescent slot boundary"
            )
        return {kernel.edge: kernel.state_dict() for kernel in self.kernels}

    def step(self, t: int, items: Sequence) -> SlotOutcomes:
        """Step every edge through slot ``t``; return the shard's one-slot record.

        ``items`` holds each edge's work for the slot, aligned with
        :attr:`kernels`: anything with ``count`` and ``shed``, such as a
        serve :class:`~repro.serve.queues.WorkItem`.
        """
        group = self._openings.get(t)
        if group is not None:
            open_blocks(group)
        if self.columnar:
            return self._step_columns(t, items)
        rows = []
        for kernel, item in zip(self.kernels, items):
            rows.append(kernel.step(t, item.count, shed=item.shed))
            if kernel.label_delay:
                kernel.deliver_due(t - kernel.label_delay)
        return SlotOutcomes.from_rows(rows)

    def _step_columns(self, t: int, items: Sequence) -> SlotOutcomes:
        """The columnar body: the per-edge steps of a clean shard in one pass.

        A shed row draws nothing, records a lost slot, costs zero and never
        switches.  Any other row serves its block's model and may switch;
        with zero arrivals it pays only the switch, and records a lost slot
        too.  Slot losses are ``np.add.reduce`` over each edge's contiguous
        segment of one shard-wide gather, divided by the count: the same
        pairwise sum, over the same values, as the step's ``mean``.
        Correct counts sum 0/1 indicators, exact integers in any order, so
        one ``reduceat`` over the non-empty segments gives them.  Each
        policy's own ``select`` and ``observe``/``observe_lost`` keep its
        Algorithm-1 bookkeeping, as in the per-edge step.
        """
        kernels = self.kernels
        policies = self._policies
        models = [policy.select(t) for policy in policies]
        counts = [item.count for item in items]
        shed = [item.shed for item in items]
        switched = [False] * len(kernels)
        spans = []
        drawn_rows = []
        for i, kernel in enumerate(kernels):
            if shed[i]:
                continue
            switched[i] = models[i] != kernel.previous_model
            kernel.previous_model = models[i]
            count = counts[i]
            if count:
                taken = self._taken[i]
                drawn = self._drawn[i]
                if taken + count > drawn.size:
                    raise RuntimeError(
                        f"edge {kernel.edge} steps {count} events at slot {t} "
                        f"but holds {drawn.size - taken} fed draws"
                    )
                self._taken[i] = taken + count
                spans.append(drawn[taken : taken + count])
                drawn_rows.append(i)
        model = np.array(models)
        is_shed = np.array(shed)
        arrivals = np.array(counts)
        served = np.where(is_shed, 0, arrivals)
        slot_loss = np.zeros(len(kernels))
        correct = np.zeros(len(kernels))
        if spans:
            sizes = served[drawn_rows]
            ends = np.cumsum(sizes)
            flat = np.repeat(model[drawn_rows] * self._pool_size, sizes)
            flat += np.concatenate(spans)
            correct[drawn_rows] = np.add.reduceat(self._correct[flat], ends - sizes)
            losses = self._losses[flat]
            reduce_add = np.add.reduce
            bounds = [0, *ends.tolist()]
            slot_loss[drawn_rows] = [
                reduce_add(losses[lo:hi]) / (hi - lo)
                for lo, hi in zip(bounds, bounds[1:])
            ]
        record = SlotOutcomes.from_columns(
            t, self._edges, self._scenario, self._switch_costs,
            model=model[:, None], switched=np.array(switched)[:, None],
            offline=np.zeros((len(kernels), 1), dtype=bool),
            shed=is_shed[:, None], arrivals=arrivals[:, None],
            served=served[:, None], slot_loss=slot_loss[:, None],
            correct=correct[:, None],
        )
        feedback = (record.slot_loss + record.latency)[:, 0].tolist()
        for policy, model, loss, seen in zip(
            policies, models, feedback, (served > 0).tolist()
        ):
            if seen:
                policy.observe(t, model, loss)
            else:
                policy.observe_lost(t, model)
        return record


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
