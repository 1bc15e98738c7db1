"""The aggregation seam: an ingress tier disguised as a stream adapter.

:class:`IngressAdapter` wraps any
:class:`~repro.serve.adapters.StreamAdapter` (poisson, replay, shape).
Per slot it thins the base count into per-SLA-class requests
(:class:`~repro.ingress.generator.RequestThinner`), routes them through
the :class:`~repro.ingress.router.IngressRouter`, and hands the runtime a
plain :class:`~repro.serve.queues.WorkItem` carrying the *released*
count.  Everything underneath — edge kernels, slot aggregator, sharded
tier, vectorized fast path — sees ordinary per-slot ``M_i^t`` counts and
works unchanged.

The adapter also owns the slot-stats lifecycle: ``next_item`` parks the
router's provisional stats under the slot index, and the runtime calls
:meth:`IngressAdapter.resolve_slot` with the ``shed`` and ``offline``
flags of the edge's row once it is known (shed and offline slots turn
releases into deadline misses).  A shard worker resolves each edge from
the shed and offline columns of the slot's
:class:`~repro.sim.kernel.SlotOutcomes` record; the serve parent resolves
the offline rows of an edge reconfigured out of the fleet, whose router
it keeps stepping, so the requests parked there still resolve.  During a
shard worker's silent catch-up the runtime calls
:meth:`IngressAdapter.discard_slot` instead — queue state advances,
already-merged stats are not re-reported.

Sampled obs events (``request_admit`` / ``request_defer`` /
``request_drop`` / ``deadline_miss``) are emitted at resolution, only on
slots where ``t % sample_every == 0`` and the count is nonzero, so event
volume stays bounded at request scale.
"""

from __future__ import annotations

import numpy as np

from repro.ingress.config import IngressConfig
from repro.ingress.generator import RequestThinner
from repro.ingress.router import IngressRouter
from repro.ingress.stats import resolve_payload
from repro.obs.events import (
    DeadlineMissEvent,
    RequestAdmitEvent,
    RequestDeferEvent,
    RequestDropEvent,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.serve.adapters import StreamAdapter
from repro.serve.queues import WorkItem
from repro.sim.scenario import Scenario

__all__ = ["IngressAdapter", "wrap_with_ingress"]


class IngressAdapter(StreamAdapter):
    """Request-level front end for one edge (see module docstring)."""

    name = "ingress"

    def __init__(
        self,
        base: StreamAdapter,
        *,
        edge: int,
        config: IngressConfig,
        seed: int,
        horizon: int,
        prices: np.ndarray,
        tracer: Tracer | None = None,
    ) -> None:
        self.base = base
        self.edge = int(edge)
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.thinner = RequestThinner(seed, edge, config.classes)
        self.router = IngressRouter(edge, config, horizon)
        self._prices = prices
        self._pending: dict[int, dict[str, object]] = {}

    def next_item(self, t: int) -> WorkItem:
        """Thin and route the base slot count; return the released count."""
        base_item = self.base.next_item(t)
        counts = self.thinner.split(base_item.count)
        released, provisional = self.router.step(t, counts, float(self._prices[t]))
        self._pending[t] = provisional
        return WorkItem(t=t, count=released)

    def resolve_slot(
        self, t: int, *, shed: bool = False, offline: bool = False
    ) -> dict[str, object]:
        """Finalize slot ``t``'s stats from its row's flags; emits sampled events."""
        provisional = self._pending.pop(t)
        payload = resolve_payload(provisional, shed=shed, offline=offline)
        tracer = self.tracer
        if tracer.enabled and t % self.config.sample_every == 0:
            edge = self.edge
            admitted = payload["in"] - payload["dropped"]
            if admitted:
                tracer.emit(RequestAdmitEvent(t=t, edge=edge, count=admitted))
            if payload["deferred"]:
                tracer.emit(
                    RequestDeferEvent(t=t, edge=edge, count=payload["deferred"])
                )
            if payload["dropped"]:
                tracer.emit(
                    RequestDropEvent(t=t, edge=edge, count=payload["dropped"])
                )
            if payload["misses"]:
                tracer.emit(
                    DeadlineMissEvent(t=t, edge=edge, count=payload["misses"])
                )
        return payload

    def discard_slot(self, t: int) -> None:
        """Drop slot ``t``'s provisional stats (shard catch-up replay)."""
        self._pending.pop(t, None)

    def state_dict(self) -> dict[str, object]:
        """Base-adapter, thinner, and router state in one picklable dict.

        ``pending`` is serialized defensively; at every quiescent snapshot
        boundary it is empty (release capping guarantees all released
        slots resolved before the snapshot).
        """
        return {
            "base": self.base.state_dict(),
            "thinner": self.thinner.state_dict(),
            "router": self.router.state_dict(),
            "pending": dict(self._pending),
        }

    def load_state(self, state: dict[str, object]) -> None:
        """Restore the state captured by :meth:`state_dict`."""
        self.base.load_state(state["base"])
        self.thinner.load_state(state["thinner"])
        self.router.load_state(state["router"])
        self._pending = dict(state["pending"])


def wrap_with_ingress(
    adapters: list[StreamAdapter],
    *,
    config: IngressConfig,
    scenario: Scenario,
    seed: int,
    tracer: Tracer | None = None,
) -> list[StreamAdapter]:
    """Wrap every edge's adapter with the ingress tier.

    Called from :func:`repro.serve.runtime.build_serve_kernels` — the
    shared determinism seam — so every worker, inline or process, and the
    parent all hold identically-configured ingress state as a pure function
    of the serve config.
    """
    return [
        IngressAdapter(
            base,
            edge=edge,
            config=config,
            seed=seed,
            horizon=scenario.horizon,
            prices=scenario.prices.buy,
            tracer=tracer,
        )
        for edge, base in enumerate(adapters)
    ]
