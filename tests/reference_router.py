# The per-request router (one heap tuple per parked request) that tests drive
# beside repro.ingress.router.IngressRouter as the reference implementation.
"""The carbon-aware ingress router: admission, deferral, release.

One router instance fronts one edge.  Each slot it ingests that edge's
thinned per-class request counts and decides, per request, between three
fates: **release now** (the request joins the slot's ``M_i^t`` count and
is served by the edge kernel), **defer** (the request waits in a
deadline-ordered heap for a cheaper forecast slot or for slot capacity),
or **drop** (admission policy under queue overflow).

Two scheduling regimes, selected by ``config.deferral``:

* **deferral on** — per-SLA-class ``heapq`` queues keyed
  ``(deadline_slot, seq)``; deadline order equals FIFO order within a
  class because a class's deadline budget is constant.  Releases run
  deadline-forced requests first (capacity-exempt — deadline beats
  throttle), then fill remaining slot capacity by class priority,
  holding back deferrable requests whose look-ahead forecast
  (:mod:`repro.forecast.price_models`) shows a cheaper slot within
  deadline.  The hold-back check is a valid heap-prefix cut: the top of a
  class heap has the *earliest* deadline, so its look-ahead window is a
  subset of every deeper entry's window — if the top prefers to wait, so
  does everything under it.
* **deferral off** — one plain FIFO per edge, deadline- and
  carbon-blind.  With ``slot_capacity == 0`` every request releases in
  its arrival slot, reproducing the non-ingress adapter path bit-exactly;
  with a capacity it models the naive baseline the example study
  compares against (spill releases in arrival order, whatever the SLA).

Determinism: routing consumes no randomness at all — given the thinned
counts and the price trace, every decision is a pure function of config
and slot index.  The final slot force-releases everything (deadlines are
clamped to ``horizon - 1``), so no request is ever left in a queue and
request accounting closes exactly.
"""

from __future__ import annotations

import copy
import heapq
from collections import deque

import numpy as np

from repro.ingress.config import IngressConfig
from repro.ingress.request import clamp_deadline

__all__ = ["IngressRouter"]

#: Queue entry layout: (deadline_slot, seq, arrival_slot, class_index).
_DEADLINE, _SEQ, _ARRIVAL, _CLASS = 0, 1, 2, 3


class IngressRouter:
    """Per-edge admission/deferral/release engine (see module docstring)."""

    def __init__(self, edge: int, config: IngressConfig, horizon: int) -> None:
        self.edge = int(edge)
        self.config = config
        self.horizon = int(horizon)
        self.classes = config.classes
        #: Class indices in release order: priority descending, name as a
        #: deterministic tie-break.
        self._release_order = sorted(
            range(len(self.classes)),
            key=lambda ci: (-self.classes[ci].priority, self.classes[ci].name),
        )
        self._seq = 0
        self._heaps: list[list[tuple[int, int, int, int]]] = [
            [] for _ in self.classes
        ]
        self._fifo: deque[tuple[int, int, int, int]] = deque()
        self._forecaster = config.make_forecaster()

    @property
    def depth(self) -> int:
        """Requests currently queued (all classes)."""
        return len(self._fifo) + sum(len(heap) for heap in self._heaps)

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
        defer_cache: dict[int, bool] = {}
        total_in = int(np.sum(counts))
        dropped = 0
        released: list[tuple[int, int, int, int]] = []

        if self.config.deferral:
            dropped += self._admit_heaps(t, counts)
            released = self._release_heaps(t, price, defer_cache)
        else:
            released, fifo_dropped = self._route_fifo(t, counts)
            dropped += fifo_dropped

        per_class: dict[str, list[int]] = {
            cls.name: [0, 0] for cls in self.classes
        }
        waits: dict[int, int] = {}
        for entry in released:
            stats = per_class[self.classes[entry[_CLASS]].name]
            stats[0] += 1
            if t <= entry[_DEADLINE]:
                stats[1] += 1
            wait = t - entry[_ARRIVAL]
            if wait:
                waits[wait] = waits.get(wait, 0) + 1

        # This slot's arrivals still queued at slot end — counted by scan
        # (queues are small) so admission evictions of *older* entries can
        # never push the tally negative.
        deferred = sum(
            1 for entry in self._fifo if entry[_ARRIVAL] == t
        ) + sum(
            1
            for heap in self._heaps
            for entry in heap
            if entry[_ARRIVAL] == t
        )
        provisional: dict[str, object] = {
            "in": total_in,
            "dropped": dropped,
            "released": len(released),
            "deferred": deferred,
            "queued": self.depth,
            "per_class": per_class,
            "waits": waits,
        }
        return len(released), provisional

    # ------------------------------------------------------------------
    # deferral-on regime: per-class deadline heaps

    def _admit_heaps(self, t: int, counts: np.ndarray | list[int]) -> int:
        """Push the slot's arrivals into class heaps; returns drops."""
        capacity = self.config.queue_capacity
        policy = self.config.admission
        dropped = 0
        for ci, count in enumerate(counts):
            deadline = clamp_deadline(t, self.classes[ci].deadline_slots, self.horizon)
            heap = self._heaps[ci]
            for _ in range(int(count)):
                entry = (deadline, self._seq, t, ci)
                self._seq += 1
                if capacity and len(heap) >= capacity and policy != "admit":
                    if policy == "drop-oldest":
                        heapq.heappop(heap)
                        dropped += 1
                    else:  # deadline-shed: evict the slackest request
                        slackest = max(range(len(heap)), key=lambda j: heap[j][:2])
                        if heap[slackest][:2] > entry[:2]:
                            heap[slackest] = heap[-1]
                            heap.pop()
                            heapq.heapify(heap)
                        else:
                            dropped += 1
                            continue
                        dropped += 1
                heapq.heappush(heap, entry)
        return dropped

    def _release_heaps(
        self, t: int, price: float, defer_cache: dict[int, bool]
    ) -> list[tuple[int, int, int, int]]:
        """Pop this slot's releases: forced first, then capacity fill."""
        released: list[tuple[int, int, int, int]] = []
        # Deadline-forced releases are capacity-exempt: a request whose
        # deadline is now goes out now, throttle or not.  On the final slot
        # every deadline has clamped to t, so this pass drains everything.
        for ci in self._release_order:
            heap = self._heaps[ci]
            while heap and heap[0][_DEADLINE] <= t:
                released.append(heapq.heappop(heap))
        capacity = self.config.slot_capacity
        for ci in self._release_order:
            cls = self.classes[ci]
            heap = self._heaps[ci]
            while heap and (not capacity or len(released) < capacity):
                if cls.deferrable and self._prefer_wait(
                    t, heap[0][_DEADLINE], price, defer_cache
                ):
                    break
                released.append(heapq.heappop(heap))
        return released

    def _prefer_wait(
        self, t: int, deadline: int, price: float, cache: dict[int, bool]
    ) -> bool:
        """Whether a cheaper forecast slot exists within the wait window."""
        window = min(deadline, t + self.config.lookahead) - t
        if window <= 0:
            return False
        cached = cache.get(window)
        if cached is None:
            forecaster = self._forecaster
            best = min(forecaster.predict(k) for k in range(1, window + 1))
            cached = best < price * (1.0 - self.config.defer_margin)
            cache[window] = cached
        return cached

    # ------------------------------------------------------------------
    # deferral-off regime: one deadline-blind FIFO

    def _route_fifo(
        self, t: int, counts: np.ndarray | list[int]
    ) -> tuple[list[tuple[int, int, int, int]], int]:
        """Arrival-order release up to slot capacity; spill queues FIFO."""
        arrivals: list[tuple[int, int, int, int]] = []
        for ci, count in enumerate(counts):
            deadline = clamp_deadline(t, self.classes[ci].deadline_slots, self.horizon)
            for _ in range(int(count)):
                arrivals.append((deadline, self._seq, t, ci))
                self._seq += 1
        pending = self._fifo
        pending.extend(arrivals)
        capacity = self.config.slot_capacity
        budget = len(pending) if not capacity or t == self.horizon - 1 else capacity
        released = [pending.popleft() for _ in range(min(budget, len(pending)))]
        return released, self._enforce_fifo_capacity()

    def _enforce_fifo_capacity(self) -> int:
        """Apply the admission policy to the FIFO spill queue; returns drops."""
        capacity = self.config.queue_capacity
        policy = self.config.admission
        if not capacity or policy == "admit":
            return 0
        dropped = 0
        pending = self._fifo
        while len(pending) > capacity:
            if policy == "drop-oldest":
                pending.popleft()
            else:  # deadline-shed
                slackest = max(range(len(pending)), key=lambda j: pending[j][:2])
                del pending[slackest]
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # snapshot support

    def state_dict(self) -> dict[str, object]:
        """Picklable router state (queues, seq counter, forecaster)."""
        return {
            "seq": self._seq,
            "heaps": [list(heap) for heap in self._heaps],
            "fifo": list(self._fifo),
            "forecaster": copy.deepcopy(self._forecaster),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        self._seq = int(state["seq"])
        self._heaps = [list(heap) for heap in state["heaps"]]
        for heap in self._heaps:
            heapq.heapify(heap)
        self._fifo = deque(state["fifo"])
        self._forecaster = copy.deepcopy(state["forecaster"])
