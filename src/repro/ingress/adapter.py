"""The aggregation seam: an ingress tier disguised as a stream feed.

:class:`IngressAdapter` is a :class:`~repro.serve.adapters.ColumnFeed`
over a set of edges, one row per edge: a shard worker's edges, or those
the serve parent holds after a reconfiguration took them out.  For each
range of slots it draws, it thins each edge's base column with one
:meth:`~repro.ingress.generator.RequestThinner.split` call on that edge's
own stream, then routes the slots in order through one
:class:`~repro.ingress.router.IngressRouter` over all the rows.  The
runtime gets the *released* counts; everything underneath (edge kernels,
slot aggregator, sharded tier) sees ordinary ``M_i^t`` counts.

A draw parks each slot's provisional stats until the runtime resolves
them with the ``shed`` and ``offline`` columns of the slot's
:class:`~repro.sim.kernel.SlotOutcomes` record (a shed or offline row
turns its releases into deadline misses): a shard worker resolves a span
record into three small arrays summed over its rows
(:meth:`IngressAdapter.resolve`), the serve parent its reconfigured-out
rows as offline.  A worker's silent catch-up calls
:meth:`IngressAdapter.discard_slot` instead: the parent already has
those stats.  Each edge's state exports and restores per row as
``{"base", "thinner", "router": {"queues", "fifo", "forecaster"},
"pending"}``, so checkpoints, reconfig drains and snapshots move edges
between shards.

Sampled obs events (``request_admit`` / ``request_defer`` /
``request_drop`` / ``deadline_miss``) are emitted at resolution, by slot
and then by edge, only on slots where ``t % sample_every == 0`` and the
count is nonzero, so event volume stays bounded at request scale.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ingress.config import IngressConfig
from repro.ingress.generator import RequestThinner
from repro.ingress.router import IngressRouter
from repro.ingress.stats import Payload, SlotRequests, resolve_payload
from repro.obs.events import (
    DeadlineMissEvent,
    RequestAdmitEvent,
    RequestDeferEvent,
    RequestDropEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.adapters import ColumnFeed, StreamAdapter
from repro.sim.kernel import SlotOutcomes

__all__ = ["IngressAdapter"]


class IngressAdapter(ColumnFeed):
    """Request-level front end for a set of edges (see module docstring)."""

    def __init__(
        self,
        adapters: Mapping[int, StreamAdapter],
        *,
        config: IngressConfig,
        seed: int,
        horizon: int,
        prices: np.ndarray,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(adapters)
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.thinners = [RequestThinner(seed, e, config.classes) for e in self.edges]
        self.router = IngressRouter(config, horizon, rows=len(self.edges))
        self._prices = prices
        self._pending: dict[int, SlotRequests] = {}

    def draw(self, start: int, stop: int) -> np.ndarray:
        """Thin and route slots ``start..stop-1``; the released counts per row."""
        base = super().draw(start, stop)
        requests = np.zeros((*base.shape, len(self.config.classes)), dtype=np.int64)
        for row, (thinner, column) in enumerate(zip(self.thinners, base)):
            requests[row] = thinner.split(column)
        released = np.empty_like(base)
        for j, t in enumerate(range(start, stop)):
            stats = self.router.route(t, requests[:, j], float(self._prices[t]))
            released[:, j] = stats.released
            self._pending[t] = stats
        return released

    def resolve_slot(self, t: int, *, shed: np.ndarray, offline: np.ndarray) -> Payload:
        """Slot ``t`` resolved from its rows' flags, summed; emits sampled events."""
        totals, per_class, waits = resolve_payload(
            self._pending.pop(t), shed=shed, offline=offline
        )
        tracer = self.tracer
        if tracer.enabled and t % self.config.sample_every == 0:
            for edge, row in zip(self.edges, totals.tolist()):
                arrived, dropped, _, deferred, _, misses = row
                admitted = arrived - dropped
                if admitted:
                    tracer.emit(RequestAdmitEvent(t=t, edge=edge, count=admitted))
                if deferred:
                    tracer.emit(RequestDeferEvent(t=t, edge=edge, count=deferred))
                if dropped:
                    tracer.emit(RequestDropEvent(t=t, edge=edge, count=dropped))
                if misses:
                    tracer.emit(DeadlineMissEvent(t=t, edge=edge, count=misses))
        return totals.sum(axis=0), per_class.sum(axis=0), waits.sum(axis=0)

    def resolve(self, record: SlotOutcomes) -> Payload:
        """A span record's slots resolved in order, stacked on a slot axis."""
        payloads = [
            self.resolve_slot(record.t + j, shed=shed, offline=offline)
            for j, (shed, offline) in enumerate(zip(record.shed.T, record.offline.T))
        ]
        totals, per_class, waits = zip(*payloads)
        width = max(len(w) for w in waits)
        padded = [np.pad(w, (0, width - len(w))) for w in waits]
        return np.stack(totals), np.stack(per_class), np.stack(padded)

    def discard_slot(self, t: int) -> None:
        """Drop slot ``t``'s parked stats unresolved (shard catch-up replay)."""
        self._pending.pop(t, None)

    def state_dict(self) -> dict[int, dict[str, object]]:
        """Each edge's base-adapter, thinner and router state.

        Taken at quiescent boundaries only, where every drawn slot has
        resolved; ``pending`` stays in the layout, always empty.
        """
        if self._pending:
            raise RuntimeError(
                f"ingress state captured with slots {sorted(self._pending)} unresolved"
            )
        bases = super().state_dict()
        return {
            e: {
                "base": bases[e],
                "thinner": thinner.state_dict(),
                "router": self.router.state_dict(row),
                "pending": {},
            }
            for row, (e, thinner) in enumerate(zip(self.edges, self.thinners))
        }

    def load_state(self, states: Mapping[int, dict[str, object]]) -> None:
        """Restore the edges in ``states`` from :meth:`state_dict`'s layout."""
        for e, state in states.items():
            row = self.edges.index(e)
            self.adapters[e].load_state(state["base"])
            self.thinners[row].load_state(state["thinner"])
            self.router.load_state(state["router"], row)
