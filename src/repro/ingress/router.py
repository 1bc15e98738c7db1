"""The carbon-aware ingress router: admission, deferral, release.

One router instance fronts one edge.  Each slot it ingests that edge's
thinned per-class request counts and decides between three fates:
**release now** (join the slot's ``M_i^t`` count, served by the edge
kernel), **defer** (wait in a deadline-ordered queue for a cheaper
forecast slot or for slot capacity), or **drop** (admission policy under
queue overflow).

Queues hold **cohorts**: the requests of one class that arrived in one
slot share a deadline and are interchangeable, so one entry with a count
stands for all of them and every queue operation costs one step per
cohort.  A partial release or drop splits the head cohort.

* **deferral on** — one FIFO of ``[deadline, arrival, count]`` cohorts per
  SLA class: a class's deadline budget is constant, so arrival order is
  deadline order.  Deadline-forced cohorts release first (capacity-exempt:
  deadline beats throttle), then remaining slot capacity fills by class
  priority, holding back a deferrable class while the look-ahead forecast
  (:mod:`repro.forecast.price_models`) shows a cheaper slot before its
  head cohort's deadline — the head has the earliest deadline, so if it
  waits, everything behind it does.  The forecasts are scanned once per
  slot, as running minima.  An arrival is always the slackest entry of
  its class, so ``deadline-shed`` rejects the arrivals beyond the bound.
* **deferral off** — one deadline- and carbon-blind FIFO of
  ``[deadline, arrival, class, count]`` cohorts.  With
  ``slot_capacity == 0`` every request releases in its arrival slot,
  reproducing the non-ingress adapter path bit-exactly; with a capacity
  it is the naive baseline the example study compares against.
  ``deadline-shed`` evicts the latest arrival of the latest deadline.

Determinism: routing consumes no randomness — every decision is a pure
function of config, counts, prices and slot index.  Deadlines clamp to
``horizon - 1``, so the final slot releases everything and request
accounting closes exactly.
"""

from __future__ import annotations

import copy
from collections import deque
from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.ingress.config import IngressConfig
from repro.ingress.request import clamp_deadline

__all__ = ["IngressRouter"]


def _take(queue: deque[list[int]], n: int) -> list[list[int]]:
    """Pop the first ``n`` requests of a cohort queue (count last) as cohorts."""
    taken = []
    while n > 0:
        head = queue[0]
        if head[-1] > n:
            head[-1] -= n
            taken.append([*head[:-1], n])
            break
        taken.append(queue.popleft())
        n -= head[-1]
    return taken


def _group(entries, *fields: int) -> deque[list[int]]:
    """Cohorts of consecutive per-request tuples equal at the ``fields``."""
    runs = groupby(entries, itemgetter(*fields))
    return deque([*key, sum(1 for _ in run)] for key, run in runs)


class IngressRouter:
    """Per-edge admission/deferral/release engine (see module docstring)."""

    def __init__(self, edge: int, config: IngressConfig, horizon: int) -> None:
        self.edge = int(edge)
        self.config = config
        self.horizon = int(horizon)
        self.classes = config.classes
        #: Class indices in release order: priority descending, then name.
        self._release_order = sorted(
            range(len(self.classes)),
            key=lambda ci: (-self.classes[ci].priority, self.classes[ci].name),
        )
        self._queues: list[deque[list[int]]] = [deque() for _ in self.classes]
        self._fifo: deque[list[int]] = deque()
        self._forecaster = config.make_forecaster()

    @property
    def depth(self) -> int:
        """Requests currently queued (all classes)."""
        return sum(c[-1] for queue in (self._fifo, *self._queues) for c in queue)

    def step(
        self, t: int, counts: np.ndarray | list[int], price: float
    ) -> tuple[int, dict[str, object]]:
        """Route one slot; returns ``(released_count, provisional stats)``.

        ``counts`` are the thinned per-class arrivals (mix order) and
        ``price`` is the slot's realized buy price — the forecaster sees
        it before any deferral decision, matching the paper's information
        structure (decisions at ``t`` use prices up to ``t`` only).
        """
        self._forecaster.update(price)
        counts = np.asarray(counts).tolist()
        # Released cohorts, as (deadline, arrival, class, count).
        if self.config.deferral:
            dropped = self._admit(t, counts)
            released = self._release(t, price)
        else:
            released, dropped = self._route_fifo(t, counts)
        # This slot's arrivals still queued are the tail cohorts.
        deferred = 0
        for queue in (self._fifo, *self._queues):
            for cohort in reversed(queue):
                if cohort[1] != t:
                    break
                deferred += cohort[-1]
        per_class = {cls.name: [0, 0] for cls in self.classes}
        waits: dict[int, int] = {}
        total = 0
        for deadline, arrival, ci, count in released:
            total += count
            stats = per_class[self.classes[ci].name]
            stats[0] += count
            if t <= deadline:
                stats[1] += count
            wait = t - arrival
            if wait:
                waits[wait] = waits.get(wait, 0) + count
        return total, {
            "in": sum(counts),
            "dropped": dropped,
            "released": total,
            "deferred": deferred,
            "queued": self.depth,
            "per_class": per_class,
            "waits": waits,
        }

    def _admit(self, t: int, counts: list[int]) -> int:
        """Queue the slot's arrivals as one cohort per class; returns drops."""
        capacity = self.config.queue_capacity
        policy = self.config.admission
        dropped = 0
        for ci, count in enumerate(counts):
            queue = self._queues[ci]
            over = 0
            if capacity and policy != "admit":
                over = max(count - max(capacity - sum(c[-1] for c in queue), 0), 0)
                dropped += over
            if policy == "deadline-shed":
                count -= over
            if not count:
                continue
            deadline = clamp_deadline(t, self.classes[ci].deadline_slots, self.horizon)
            queue.append([deadline, t, count])
            if policy == "drop-oldest":
                _take(queue, over)
        return dropped

    def _release(self, t: int, price: float) -> list[tuple[int, int, int, int]]:
        """This slot's released cohorts: forced first, then capacity fill."""
        released = []
        # Deadline-forced releases are capacity-exempt.  On the final slot
        # every deadline has clamped to t, so this pass drains everything.
        for ci in self._release_order:
            queue = self._queues[ci]
            while queue and queue[0][0] <= t:
                deadline, arrival, count = queue.popleft()
                released.append((deadline, arrival, ci, count))
        capacity = self.config.slot_capacity
        budget = capacity - sum(c[-1] for c in released) if capacity else None
        minima: list[float] = []
        lookahead = t + self.config.lookahead
        threshold = price * (1.0 - self.config.defer_margin)
        for ci in self._release_order:
            deferrable = self.classes[ci].deferrable
            queue = self._queues[ci]
            while queue and (budget is None or budget > 0):
                deadline, arrival, count = queue[0]
                # Hold back while a cheaper slot is forecast before the deadline.
                window = min(deadline, lookahead) - t
                if deferrable and window > 0:
                    if self._lowest(minima, window) < threshold:
                        break
                if budget is not None:
                    count = min(count, budget)
                    budget -= count
                _take(queue, count)
                released.append((deadline, arrival, ci, count))
        return released

    def _lowest(self, minima: list[float], window: int) -> float:
        """Lowest of ``predict(1..window)``; ``minima[k - 1]`` is the slot's
        running lowest of ``predict(1..k)``, grown only as far as asked."""
        predict = self._forecaster.predict
        for k in range(len(minima) + 1, window + 1):
            value = predict(k)
            minima.append(value if not minima or value < minima[-1] else minima[-1])
        return minima[window - 1]

    def _route_fifo(self, t: int, counts: list[int]) -> tuple[list[list[int]], int]:
        """Arrival-order release up to slot capacity; the spill queues FIFO
        under the admission policy.  Returns the released cohorts and drops."""
        pending = self._fifo
        for ci, count in enumerate(counts):
            if count:
                slots = self.classes[ci].deadline_slots
                pending.append([clamp_deadline(t, slots, self.horizon), t, ci, count])
        queued = sum(c[-1] for c in pending)
        capacity = self.config.slot_capacity
        n = min(capacity, queued) if capacity and t < self.horizon - 1 else queued
        released = _take(pending, n)
        bound = self.config.queue_capacity
        excess = queued - n - bound
        if not bound or self.config.admission == "admit" or excess <= 0:
            return released, 0
        if self.config.admission == "drop-oldest":
            _take(pending, excess)
            return released, excess
        left = excess
        while left:  # deadline-shed: the last cohort of the latest deadline
            j = max(range(len(pending)), key=lambda j: (pending[j][0], j))
            shed = min(left, pending[j][-1])
            pending[j][-1] -= shed
            left -= shed
            if not pending[j][-1]:
                del pending[j]
        return released, excess

    def state_dict(self) -> dict[str, object]:
        """Picklable router state (cohort queues, forecaster)."""
        return {
            "queues": [[list(c) for c in queue] for queue in self._queues],
            "fifo": [list(c) for c in self._fifo],
            "forecaster": copy.deepcopy(self._forecaster),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore the state captured by :meth:`state_dict`.

        Also reads the per-request layout of version-2 snapshots: a
        ``"seq"`` counter, ``"heaps"`` in heap order and a ``"fifo"`` of
        ``(deadline, seq, arrival, class)`` tuples, grouped into cohorts.
        """
        if "seq" in state:
            self._queues = [_group(sorted(heap), 0, 2) for heap in state["heaps"]]
            self._fifo = _group(state["fifo"], 0, 2, 3)
        else:
            self._queues = [deque(list(c) for c in q) for q in state["queues"]]
            self._fifo = deque(list(c) for c in state["fifo"])
        self._forecaster = copy.deepcopy(state["forecaster"])
