"""Bounded per-edge work queues with event-weighted backpressure.

Capacity is measured in *events* (sample counts), not items: a slot
carrying 80 samples occupies 80 units, so the bound tracks actual memory
and compute debt rather than item counts.  A burst larger than the whole
capacity is still admitted when the queue is empty (otherwise ``block``
mode would hold it forever); shed markers weigh nothing and always fit, so
an edge sees every slot even when its payload was dropped.

The queues are plain synchronous deques: one shard worker's slot loop
(:mod:`repro.serve.shard`) is the only code that feeds and drains them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["BoundedWorkQueue", "QueueStats", "WorkItem"]


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


@dataclass
class QueueStats:
    """Occupancy accounting for one work queue."""

    events: int = 0
    items: int = 0
    peak_events: int = 0
    rejected: int = 0


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

    @property
    def depth_events(self) -> int:
        """Event weight currently enqueued."""
        return self.stats.events

    @property
    def depth_items(self) -> int:
        """Items currently enqueued."""
        return self.stats.items

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
