"""The carbon-aware ingress router: admission, deferral, release.

One router instance fronts the edges (*rows*) of one shard.  Each slot it
ingests every row's thinned per-class request counts and decides between
three fates: **release now** (join the slot's ``M_i^t`` count, served by
the edge kernel), **defer** (wait for a cheaper forecast slot or for slot
capacity), or **drop** (admission policy under queue overflow).

Requests of one class that arrived in one slot share a deadline and are
interchangeable, so the queues are one ``(row, class, arrival)`` count
array over the arrival slots from the oldest queued one to now, and every
decision is an array operation across the rows.

* **deferral on** — cells whose clamped deadline is due release first,
  capacity-exempt: deadline beats throttle.  A deferrable cell is *held*
  while the running minimum of the look-ahead forecasts
  (:mod:`repro.forecast.price_models`) over its window ``min(deadline, t
  + lookahead) - t`` is below ``price * (1 - defer_margin)``.  The mask
  depends only on slot, class and arrival, so one small array serves
  every row; a later arrival has a wider window and so a lower minimum,
  which makes the mask cut each class's queue at one point.  Remaining
  capacity fills the unheld cells in (class priority, arrival) order, one
  cumulative sum per row.  Admission bounds each class's queue per row:
  ``deadline-shed`` rejects the arrivals beyond the bound (an arrival is
  its class's slackest request), ``drop-oldest`` evicts the oldest.
* **deferral off** — one deadline- and carbon-blind FIFO in (arrival,
  class) order.  With ``slot_capacity == 0`` every request releases in its
  arrival slot, reproducing the non-ingress path bit-exactly; with a
  capacity it is the naive baseline the example study compares against.
  Overflow evicts the next requests in line (``drop-oldest``) or the
  latest (deadline, arrival, class) first (``deadline-shed``).

Every row sees the same price each slot, so one forecaster serves them
all.  Routing consumes no randomness.  Deadlines clamp to ``horizon - 1``,
so the final slot releases everything and request accounting closes
exactly.  A row's state exports as cohorts: per class ``[deadline,
arrival, count]`` lists, or one ``[deadline, arrival, class, count]`` FIFO.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.ingress.config import IngressConfig
from repro.ingress.request import clamp_deadline
from repro.ingress.stats import SlotRequests

__all__ = ["IngressRouter"]


def _head(counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The first ``n[row]`` requests of each row, queued along the last axis."""
    before = np.cumsum(counts, axis=-1) - counts
    return np.minimum(np.maximum(np.asarray(n)[..., None] - before, 0), counts)


class IngressRouter:
    """Admission/deferral/release for ``rows`` edges (see module docstring)."""

    def __init__(self, config: IngressConfig, horizon: int, rows: int = 1) -> None:
        self.config = config
        self.horizon = int(horizon)
        classes = self.classes = config.classes
        #: Class indices in release order: priority descending, then name.
        rank = [(-cls.priority, cls.name) for cls in classes]
        self._order = np.array(sorted(range(len(classes)), key=rank.__getitem__))
        self._budgets = np.array([[cls.deadline_slots] for cls in classes])
        self._deferrable = np.array([[cls.deferrable] for cls in classes])
        self._forecaster = config.make_forecaster()
        #: Queued requests per (row, class, arrival), arrivals from ``_first``.
        self._queue = np.zeros((rows, len(classes), 0), dtype=np.int64)
        self._first = 0

    @property
    def depth(self) -> np.ndarray:
        """Requests currently queued, per row (all classes)."""
        return self._queue.sum(axis=(1, 2))

    def route(self, t: int, counts: np.ndarray, price: float) -> SlotRequests:
        """Route slot ``t`` for every row; returns its provisional stats.

        ``counts[row, class]`` are the thinned arrivals (mix order) and
        ``price`` is the slot's realized buy price — the forecaster sees it
        before any deferral decision, matching the paper's information
        structure (decisions at ``t`` use prices up to ``t`` only).
        """
        self._forecaster.update(price)
        counts = np.asarray(counts, dtype=np.int64)
        if self.config.deferral:
            return self._route_deferral(t, counts, price)
        return self._route_fifo(t, counts)

    def step(
        self, t: int, counts: np.ndarray | list[int], price: float
    ) -> tuple[int, dict[str, object]]:
        """Route one slot of a one-row router: ``(released, provisional stats)``."""
        stats = self.route(t, np.asarray(counts)[None, :], price)
        return int(stats.released[0]), stats.row(0, self.config.class_names)

    def _window(self, t: int, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The queue with slot ``t``'s arrivals appended, and each cell's deadline."""
        self._cover(t, t)
        self._queue[:, :, -1] += counts
        arrival = np.arange(self._first, t + 1)
        return self._queue, clamp_deadline(arrival, self._budgets, self.horizon)

    def _route_deferral(self, t: int, counts: np.ndarray, price: float) -> SlotRequests:
        config = self.config
        arrived = counts.sum(axis=1)
        dropped = np.zeros_like(arrived)
        over = None
        if config.queue_capacity and config.admission != "admit":
            room = np.maximum(config.queue_capacity - self._queue.sum(axis=2), 0)
            over = np.maximum(counts - room, 0)
            dropped = over.sum(axis=1)
            if config.admission == "deadline-shed":
                counts = counts - over
        queue, deadline = self._window(t, counts)
        if over is not None and config.admission == "drop-oldest":
            queue = queue - _head(queue, over)
        forced = deadline <= t
        # Only unforced cells have a positive window; hold the deferrable
        # ones whose window holds a cheaper forecast.
        held = ~forced & self._deferrable
        if held.any():
            window = np.maximum(np.minimum(deadline, t + config.lookahead) - t, 1)
            cheaper = self._lowest(int(window.max()))[window - 1]
            held &= cheaper < price * (1.0 - config.defer_margin)
        released = queue * forced
        free = queue * ~(forced | held)
        if config.slot_capacity:
            budget = np.maximum(config.slot_capacity - released.sum(axis=(1, 2)), 0)
            # Fill by class priority, each class in arrival order.
            ordered = free[:, self._order]
            taken = _head(ordered.reshape(len(queue), -1), budget)
            free[:, self._order] = taken.reshape(ordered.shape)
        released += free
        return self._settle(t, arrived, dropped, released, queue - released, deadline)

    def _route_fifo(self, t: int, counts: np.ndarray) -> SlotRequests:
        config = self.config
        queue, deadline = self._window(t, counts)
        by_arrival = queue.transpose(0, 2, 1)
        flat = by_arrival.reshape(len(queue), -1)  # (arrival, class) order
        queued = flat.sum(axis=1)
        capacity = config.slot_capacity
        final = t == self.horizon - 1
        n = np.minimum(capacity, queued) if capacity and not final else queued
        released = _head(flat, n)
        left = flat - released
        dropped = np.zeros_like(queued)
        bound = config.queue_capacity
        if bound and config.admission != "admit":
            dropped = np.maximum(queued - n - bound, 0)
            if config.admission == "drop-oldest":
                left -= _head(left, dropped)
            else:  # deadline-shed: latest deadline, then arrival, then class
                cells = np.arange(flat.shape[1])
                order = np.lexsort((cells, deadline.T.ravel()))[::-1]
                left[:, order] -= _head(left[:, order], dropped)
        shape = by_arrival.shape
        return self._settle(
            t, counts.sum(axis=1), dropped,
            released.reshape(shape).transpose(0, 2, 1),
            left.reshape(shape).transpose(0, 2, 1), deadline,
        )

    def _settle(self, t, arrived, dropped, released, queue, deadline) -> SlotRequests:
        """Keep the queue left after slot ``t`` and return the slot's stats."""
        by_class = released.sum(axis=2)
        # Deferral on forces every cell out at its deadline, so only the
        # FIFO releases late.
        late = deadline < t
        on_time = (released * ~late).sum(axis=2) if late.any() else by_class
        waits = released.sum(axis=1)[:, ::-1].copy()  # index = slots waited
        waits[:, 0] = 0
        totals = np.stack(
            [arrived, dropped, by_class.sum(axis=1), queue[:, :, -1].sum(axis=1),
             queue.sum(axis=(1, 2))],
            axis=1,
        )
        self._keep(queue)
        return SlotRequests(totals, np.stack([by_class, on_time], axis=1), waits)

    def _keep(self, queue: np.ndarray) -> None:
        """Store ``queue``, trimmed of its leading empty arrival slots."""
        skip = 0
        if not queue[:, :, 0].any():
            busy = queue.any(axis=(0, 1))
            skip = int(busy.argmax()) if busy.any() else len(busy)
        self._queue = queue[:, :, skip:]
        self._first += skip

    def _lowest(self, window: int) -> np.ndarray:
        """``lowest[k - 1]`` is the lowest of ``predict(1..k)``, for k <= window."""
        predict = self._forecaster.predict
        return np.minimum.accumulate([predict(k) for k in range(1, window + 1)])

    # -- per-row state -------------------------------------------------------

    def state_dict(self, row: int = 0) -> dict[str, object]:
        """One row's picklable state: cohort lists and the forecaster."""
        queue = self._queue[row].T  # (arrival, class)
        arrival = self._first + np.arange(len(queue))
        deadline = clamp_deadline(arrival[:, None], self._budgets.T, self.horizon)
        queues: list[list[list[int]]] = [[] for _ in self.classes]
        fifo = []
        for j, ci in zip(*np.nonzero(queue)):  # (arrival, class) order
            d, a, n = int(deadline[j, ci]), int(arrival[j]), int(queue[j, ci])
            if self.config.deferral:
                queues[ci].append([d, a, n])
            else:
                fifo.append([d, a, int(ci), n])
        forecaster = copy.deepcopy(self._forecaster)
        return {"queues": queues, "fifo": fifo, "forecaster": forecaster}

    def load_state(self, state: dict[str, object], row: int = 0) -> None:
        """Restore one row from :meth:`state_dict`'s layout.

        Also reads the per-request layout of version-2 snapshots: ``"heaps"``
        per class and a ``"fifo"`` of ``(deadline, seq, arrival, class)``
        tuples, one per request.  Every row has seen the same prices, so
        any row's forecaster is the router's.
        """
        if "seq" in state:
            heaps = enumerate(state["heaps"])
            cells = [(r[2], ci, 1) for ci, heap in heaps for r in heap]
            cells += [(r[2], r[3], 1) for r in state["fifo"]]
        else:
            queues = enumerate(state["queues"])
            cells = [(c[1], ci, c[2]) for ci, queue in queues for c in queue]
            cells += [(c[1], c[2], c[3]) for c in state["fifo"]]
        self._queue[row] = 0
        if cells:
            arrivals = [arrival for arrival, _, _ in cells]
            self._cover(min(arrivals), max(arrivals))
            for arrival, ci, count in cells:
                self._queue[row, ci, arrival - self._first] += count
        self._forecaster = copy.deepcopy(state["forecaster"])

    def _cover(self, lo: int, hi: int) -> None:
        """Widen the arrival window, in a new array, to span slots ``lo..hi``."""
        rows, num_classes, width = self._queue.shape
        if width:
            lo, hi = min(lo, self._first), max(hi, self._first + width - 1)
        queue = np.zeros((rows, num_classes, hi - lo + 1), dtype=np.int64)
        queue[:, :, self._first - lo : self._first - lo + width] = self._queue
        self._queue, self._first = queue, lo
