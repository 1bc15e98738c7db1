"""A shard's bounded per-edge work queues, as arrays over drawn count columns.

Capacity is counted in *events*, not items.  A burst is admitted if it
weighs nothing, if its queue is empty (else a burst over the capacity
would wait forever), or if it fits.  A refused burst is shed, queueing a
zero-weight marker so the edge still steps the slot, or in ``block`` mode
held for the next offer.  Only a shard worker's slot loop uses one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs.events import ArrivalEvent, QueueShedEvent
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["QueueStats", "ShardAdmission"]


@dataclass
class QueueStats:
    """Occupancy accounting for one work queue."""

    events: int = 0
    items: int = 0
    peak_events: int = 0
    rejected: int = 0


class ShardAdmission:
    """Every edge's queue of one shard: ``counts`` holds the drawn slots from
    ``start``, with their shed marks and first-offer feed times, and edge
    ``i`` has queued the slots ``[start, frontier[i])``.
    """

    def __init__(
        self, edges: Sequence[int], capacity: int, *, shed: bool, start: int
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.edges, self.capacity, self.shed_mode = tuple(edges), capacity, shed
        n = len(self.edges)
        self.start, self.frontier = start, np.full(n, start)
        self.events, self.peak_events, self.rejected = np.zeros((3, n), np.int64)
        #: Block mode: a held burst's first feed time, NaN where none is held.
        self.held_at = np.full(n, np.nan)
        self.counts = np.zeros((n, 0), np.int64)
        self.shed, self.fed_at = np.zeros((n, 0), bool), np.zeros((n, 0))

    @property
    def drawn(self) -> int:
        """The first slot not drawn yet."""
        return self.start + self.counts.shape[1]

    def stats(self) -> dict[int, QueueStats]:
        """Each edge's queue accounting, keyed by edge."""
        items = self.frontier - self.start
        rows = np.stack([self.events, items, self.peak_events, self.rejected], 1)
        return {e: QueueStats(*row) for e, row in zip(self.edges, rows.tolist())}

    def feed(self, columns, now: float, tracer: Tracer = NULL_TRACER) -> int:
        """Append drawn ``columns`` (or none), offer each unqueued burst at ``now``.

        Rows whose headroom covers their unqueued total are admitted with
        array operations (counts are >= 0, so a peak is depth plus total);
        a row that overflows walks its bursts.  Returns the first slot some
        edge has not queued.
        """
        if columns is not None:
            pad = ((0, 0), (0, columns.shape[1]))
            self.counts = np.concatenate([self.counts, columns], axis=1)
            self.shed, self.fed_at = np.pad(self.shed, pad), np.pad(self.fed_at, pad)
        first, held = self.frontier - self.start, ~np.isnan(self.held_at)
        new = np.arange(self.counts.shape[1]) >= first[:, None]
        totals = np.where(new, self.counts, 0).sum(axis=1)
        fits = self.events + totals <= self.capacity
        self.fed_at[new & fits[:, None]] = now
        rows = np.flatnonzero(fits & held)
        self.fed_at[rows, first[rows]] = self.held_at[rows]
        self.held_at[fits] = np.nan
        self.events[fits] += totals[fits]
        self.peak_events[fits] = np.maximum(self.peak_events, self.events)[fits]
        self.frontier[fits] = self.drawn
        for i in np.flatnonzero(~fits).tolist():
            self._walk(i, now)
        if tracer.enabled:  # each burst's first offer, edge by edge
            offered = self.frontier - self.start + ~np.isnan(self.held_at)
            for i, e in enumerate(self.edges):
                for j in range(first[i] + held[i], offered[i]):
                    count, t = int(self.counts[i, j]), self.start + j
                    tracer.emit(ArrivalEvent(t=t, edge=e, count=count))
                    if self.shed[i, j]:
                        tracer.emit(QueueShedEvent(t=t, edge=e, count=count))
        return int(self.frontier.min())

    def _walk(self, i: int, now: float) -> None:
        """Offer edge ``i``'s unqueued bursts one by one."""
        events, items = int(self.events[i]), int(self.frontier[i] - self.start)
        for j in range(items, self.counts.shape[1]):
            count = int(self.counts[i, j])
            at = now if np.isnan(self.held_at[i]) else float(self.held_at[i])
            self.fed_at[i, j] = at
            if count and items and events + count > self.capacity:
                if not self.shed_mode:
                    self.held_at[i] = at
                    break
                self.rejected[i] += 1
                self.shed[i, j], count = True, 0
            self.held_at[i] = np.nan
            events, items = events + count, items + 1
            self.peak_events[i] = max(self.peak_events[i], events)
        self.events[i], self.frontier[i] = events, self.start + items

    def take(self, until: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dequeue the slots ``[start, until)``: counts, shed marks, feed times."""
        width = until - self.start
        taken = self.counts[:, :width], self.shed[:, :width], self.fed_at[:, :width]
        self.events -= np.where(taken[1], 0, taken[0]).sum(axis=1)
        self.counts, self.shed = self.counts[:, width:], self.shed[:, width:]
        self.start, self.fed_at = until, self.fed_at[:, width:]
        return taken
