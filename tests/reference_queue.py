# The per-burst work queues (one deque item per edge-slot) that tests drive
# beside repro.serve.queues.ShardAdmission as the reference implementation.
"""Bounded per-edge work queues with event-weighted backpressure.

Capacity is measured in *events* (sample counts), not items: a slot
carrying 80 samples occupies 80 units, so the bound tracks actual memory
and compute debt rather than item counts.  A burst larger than the whole
capacity is still admitted when the queue is empty (otherwise ``block``
mode would hold it forever); shed markers weigh nothing and always fit, so
an edge sees every slot even when its payload was dropped.

:class:`ReferenceAdmission` is a shard worker's feed over one
:class:`BoundedWorkQueue` per edge, as the slot loop ran it: one ``put``
per offered burst and one ``pop`` per taken edge-slot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.obs.events import ArrivalEvent, QueueShedEvent
from repro.obs.tracer import NULL_TRACER
from repro.serve.queues import QueueStats


@dataclass(frozen=True)
class WorkItem:
    """One slot's workload for one edge.

    A ``shed`` item records a payload dropped at the queue: the kernel
    still advances its block schedule, but serves nothing.
    """

    t: int
    count: int
    shed: bool = False

    @property
    def weight(self) -> int:
        """Queue-capacity units this item occupies (shed markers are free)."""
        return 0 if self.shed else self.count


class BoundedWorkQueue:
    """A FIFO bounded by total event weight.

    ``put`` admits an item when it fits and returns whether it did.  A
    refused ``block=False`` put is the shed path and counts in
    ``stats.rejected``; a refused blocking put leaves the caller holding
    the burst to offer again once a ``pop`` has made room.  Each item
    carries the time it was fed, which ``pop`` hands back with it.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = QueueStats()
        self._items: deque[tuple[WorkItem, float]] = deque()

    def put(self, item: WorkItem, fed_at: float = 0.0, *, block: bool = True) -> bool:
        """Enqueue ``item`` (fed at ``fed_at``) if it fits; returns whether it did."""
        stats = self.stats
        weight = item.weight
        if weight and stats.items and stats.events + weight > self.capacity:
            if not block:
                stats.rejected += 1
            return False
        self._items.append((item, fed_at))
        stats.events += weight
        stats.items += 1
        if stats.events > stats.peak_events:
            stats.peak_events = stats.events
        return True

    def pop(self) -> tuple[WorkItem, float]:
        """Dequeue the oldest item and the time it was fed."""
        item, fed_at = self._items.popleft()
        self.stats.events -= item.weight
        self.stats.items -= 1
        return item, fed_at

    def queued(self) -> list[tuple[WorkItem, float]]:
        """The queued items and their feed times, oldest first."""
        return list(self._items)


class ReferenceAdmission:
    """One queue per edge, fed burst by burst as the slot loop fed them."""

    def __init__(self, edges, capacity: int, *, shed: bool, start: int) -> None:
        self.edges = tuple(edges)
        self.queues = [BoundedWorkQueue(capacity) for _ in self.edges]
        self.shed_mode = shed
        self.base = start
        self.pending = np.zeros((len(self.edges), 0), dtype=np.int64)
        self.next_put = [start] * len(self.edges)
        self.held: dict[int, float] = {}

    def feed(self, columns, now: float, tracer=NULL_TRACER) -> int:
        if columns is not None:
            self.pending = np.concatenate([self.pending, columns], axis=1)
        for row, e in enumerate(self.edges):
            queue, s = self.queues[row], self.next_put[row]
            for count in self.pending[row, s - self.base :].tolist():
                fed_at = self.held.pop(e, None)
                if fed_at is None:
                    fed_at = now
                    if tracer.enabled:
                        tracer.emit(ArrivalEvent(t=s, edge=e, count=count))
                if queue.put(WorkItem(s, count), fed_at, block=not self.shed_mode):
                    s += 1
                    continue
                if not self.shed_mode:
                    self.held[e] = fed_at
                    break
                if tracer.enabled:
                    tracer.emit(QueueShedEvent(t=s, edge=e, count=count))
                queue.put(WorkItem(s, count, shed=True), now)
                s += 1
            self.next_put[row] = s
        first = min(self.next_put)
        self.pending = self.pending[:, first - self.base :]
        self.base = first
        return first

    def take(self, start: int, until: int):
        """Pop each edge's slots ``[start, until)``: counts, sheds, feed times."""
        popped = [[queue.pop() for _ in range(start, until)] for queue in self.queues]
        counts = [[item.count for item, _ in row] for row in popped]
        shed = [[item.shed for item, _ in row] for row in popped]
        fed_at = [[at for _, at in row] for row in popped]
        return np.array(counts, np.int64), np.array(shed, bool), np.array(fed_at)

    def stats(self) -> dict[int, QueueStats]:
        pairs = zip(self.edges, self.queues)
        return {e: QueueStats(**vars(queue.stats)) for e, queue in pairs}
