"""SLA accounting: per-slot stat payloads and the run-level accumulator.

Per-slot stats are produced *provisionally* by the router (it cannot know
whether the slot it released into will actually serve), then **resolved**
against the shed and offline flags of the edge's row in the slot's
:class:`~repro.sim.kernel.SlotOutcomes`: if the slot was shed at the work
queue or the edge was offline, every release that slot becomes a deadline
miss regardless of timing.  Resolved payloads are plain dicts of ints —
picklable, mergeable, and safe to ship over the shard frame protocol —
and :class:`IngressStats` folds any number of them (any edge, any order)
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

__all__ = ["IngressStats", "resolve_payload"]


def resolve_payload(
    provisional: dict[str, object], *, shed: bool = False, offline: bool = False
) -> dict[str, object]:
    """Finalize one slot's provisional router stats against its row's flags.

    A release only counts as a deadline *hit* if the slot actually served
    (not ``shed``, not ``offline``) **and** the release was on time.
    """
    served = not (shed or offline)
    per_class: dict[str, list[int]] = {}
    hits = 0
    for name, (released, on_time) in provisional["per_class"].items():
        class_hits = on_time if served else 0
        per_class[name] = [released, class_hits]
        hits += class_hits
    released_total = int(provisional["released"])
    return {
        "in": int(provisional["in"]),
        "dropped": int(provisional["dropped"]),
        "released": released_total,
        "deferred": int(provisional["deferred"]),
        "queued": int(provisional["queued"]),
        "hits": hits,
        "misses": released_total - hits,
        "per_class": per_class,
        "waits": dict(provisional["waits"]),
    }


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

    def absorb(self, payload: dict[str, object]) -> None:
        """Fold one resolved slot payload into the run totals."""
        self.requests_in += payload["in"]
        self.requests_dropped += payload["dropped"]
        self.requests_released += payload["released"]
        self.requests_deferred += payload["deferred"]
        self.deadline_hits += payload["hits"]
        self.deadline_misses += payload["misses"]
        for name, (released, hits) in payload["per_class"].items():
            bucket = self.per_class[name]
            bucket["released"] += released
            bucket["hits"] += hits
            bucket["misses"] += released - hits
        for wait, count in payload["waits"].items():
            wait = int(wait)
            self.waits[wait] = self.waits.get(wait, 0) + count

    def accounting_ok(self, served: int, shed: int, dropped_offline: int) -> bool:
        """The request-conservation identity against the slot-level counters."""
        return (
            self.requests_in
            == served + shed + dropped_offline + self.requests_dropped
        )

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
