"""SLA accounting: per-slot request stats and the run-level accumulator.

The router produces each slot's stats *provisionally*, one row per edge
(:class:`SlotRequests`): it cannot know whether the slot it released into
will serve.  :func:`resolve_payload` resolves them against the rows' shed
and offline flags: on a shed or offline row every release becomes a
deadline miss regardless of timing.  Summed over a shard's rows, a
resolved slot is three small integer arrays that travel in SLOT frames,
and :class:`IngressStats` folds any number of them (any shard, any order)
into run totals.

The run-level accounting identity, checked by ``repro soak --ingress``::

    requests_in == events_served + events_shed + events_dropped_offline
                   + requests_dropped

holds because every admitted request is eventually released (deadlines
clamp to the final slot, which force-flushes), and every released request
lands in exactly one of served / shed / dropped-offline via its slot's
outcome.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["IngressStats", "Payload", "SlotRequests", "resolve_payload"]

#: The columns of :attr:`SlotRequests.totals`.
TOTALS = ("in", "dropped", "released", "deferred", "queued")

#: Resolved stats: totals ``(in, dropped, released, deferred, hits,
#: misses)``, per-class ``(released, hits)`` and waits, per row or summed.
Payload = tuple[np.ndarray, np.ndarray, np.ndarray]


class SlotRequests(NamedTuple):
    """One slot's provisional request stats, one row per edge."""

    #: ``(rows, 5)``: arrived, dropped, released, this slot's arrivals
    #: still queued (deferred) and all requests queued, per :data:`TOTALS`.
    totals: np.ndarray
    #: ``(rows, 2, classes)``: requests released, and released on time.
    per_class: np.ndarray
    #: ``(rows, width)``: released requests by the slots they waited.
    waits: np.ndarray

    @property
    def released(self) -> np.ndarray:
        """Requests released per row."""
        return self.totals[:, 2]

    def row(self, row: int, class_names: tuple[str, ...]) -> dict[str, object]:
        """One row's stats as a dict of ints (waits listed when nonzero)."""
        stats: dict[str, object] = dict(zip(TOTALS, self.totals[row].tolist()))
        released, on_time = self.per_class[row].tolist()
        stats["per_class"] = {
            name: [n, hits] for name, n, hits in zip(class_names, released, on_time)
        }
        waits = self.waits[row]
        stats["waits"] = {int(w): int(waits[w]) for w in np.flatnonzero(waits)}
        return stats


def resolve_payload(
    stats: SlotRequests, *, shed: np.ndarray, offline: np.ndarray
) -> Payload:
    """Finalize one slot's provisional stats against its rows' flags.

    A release only counts as a deadline *hit* if its row actually served
    (neither ``shed`` nor ``offline``) **and** the release was on time.
    """
    served = ~(np.asarray(shed) | np.asarray(offline))
    hits = stats.per_class[:, 1] * served[:, None]
    total_hits = hits.sum(axis=1)
    totals = np.column_stack(
        [stats.totals[:, :4], total_hits, stats.released - total_hits]
    )
    return totals, np.stack([stats.per_class[:, 0], hits], axis=1), stats.waits


class IngressStats:
    """Run-level request accounting, folded from resolved slot payloads."""

    def __init__(self, class_names: tuple[str, ...]) -> None:
        self.requests_in = 0
        self.requests_dropped = 0
        self.requests_released = 0
        self.requests_deferred = 0
        self.deadline_hits = 0
        self.deadline_misses = 0
        self.per_class: dict[str, dict[str, int]] = {
            name: {"released": 0, "hits": 0, "misses": 0} for name in class_names
        }
        self.waits: dict[int, int] = {}

    def absorb(self, payload: Payload) -> None:
        """Fold one resolved slot payload, summed over rows, into the totals."""
        totals, per_class, waits = payload
        requests_in, dropped, released, deferred, hits, misses = totals.tolist()
        self.requests_in += requests_in
        self.requests_dropped += dropped
        self.requests_released += released
        self.requests_deferred += deferred
        self.deadline_hits += hits
        self.deadline_misses += misses
        for bucket, class_released, class_hits in zip(
            self.per_class.values(), *per_class.tolist()
        ):
            bucket["released"] += class_released
            bucket["hits"] += class_hits
            bucket["misses"] += class_released - class_hits
        for wait in np.flatnonzero(waits).tolist():
            self.waits[wait] = self.waits.get(wait, 0) + int(waits[wait])

    def accounting_ok(self, served: int, shed: int, dropped_offline: int) -> bool:
        """The request-conservation identity against the slot-level counters."""
        offered = served + shed + dropped_offline + self.requests_dropped
        return self.requests_in == offered

    def summary(self) -> dict[str, object]:
        """JSON-ready run summary (embedded in SoakReport v3)."""
        per_class = {}
        for name, bucket in self.per_class.items():
            released = bucket["released"]
            per_class[name] = {
                "released": released,
                "hits": bucket["hits"],
                "misses": bucket["misses"],
                "hit_rate": bucket["hits"] / released if released else None,
            }
        released = self.requests_released
        return {
            "requests_in": self.requests_in,
            "requests_dropped": self.requests_dropped,
            "requests_released": released,
            "requests_deferred": self.requests_deferred,
            "deadline_hits": self.deadline_hits,
            "deadline_misses": self.deadline_misses,
            "deadline_hit_rate": self.deadline_hits / released if released else None,
            "per_class": per_class,
            "wait_histogram": {str(w): c for w, c in sorted(self.waits.items())},
        }
