"""Deterministic realization of a :class:`~repro.faults.plan.FaultPlan`.

The injector materializes every probabilistic fault spec into boolean
realization arrays at construction time, drawing each spec from its own
named RNG stream (``"<kind>-<spec index>"`` under the factory it is given).
Because each stream is consumed in exactly one vectorized draw, realization
is independent of query order, and adding or removing one spec never
perturbs the realization of another.  Queries afterwards are plain array
lookups — nothing on the simulator's hot path consumes randomness.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import (
    DownloadFailure,
    EdgeOutage,
    FaultPlan,
    FeedbackLoss,
    GilbertElliottLoss,
    MarketOutage,
    TradeRejection,
)
from repro.utils.rng import RngFactory

__all__ = ["FaultInjector"]

#: Backoff cap used when a download fails at a cell no spec covers (cannot
#: happen by construction, but keeps ``backoff_cap`` total).
_DEFAULT_BACKOFF_CAP = 8


class FaultInjector:
    """Realizes a fault plan over a ``(horizon, num_edges)`` grid.

    Parameters
    ----------
    plan:
        The declared faults.  Spec order indexes the RNG stream names.
    horizon, num_edges:
        Dimensions of the run the plan applies to.
    rng:
        Factory whose named streams realize the probabilistic specs.  The
        simulator passes a dedicated child so fault streams never collide
        with workload or policy streams.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        horizon: int,
        num_edges: int,
        rng: RngFactory,
    ) -> None:
        if horizon <= 0 or num_edges <= 0:
            raise ValueError(
                f"horizon and num_edges must be positive, got "
                f"({horizon}, {num_edges})"
            )
        self.plan = plan
        self.horizon = horizon
        self.num_edges = num_edges

        offline = np.zeros((horizon, num_edges), dtype=bool)
        feedback = np.zeros((horizon, num_edges), dtype=bool)
        download = np.zeros((horizon, num_edges), dtype=bool)
        backoff = np.full((horizon, num_edges), _DEFAULT_BACKOFF_CAP, dtype=int)
        blocked = np.zeros(horizon, dtype=bool)

        for index, spec in enumerate(plan.specs):
            if isinstance(spec, EdgeOutage):
                self._check_edge(spec.edge)
                offline[spec.start : spec.end, spec.edge] = True
            elif isinstance(spec, FeedbackLoss):
                feedback |= self._edge_mask(spec, index, rng)
            elif isinstance(spec, GilbertElliottLoss):
                feedback |= self._gilbert_elliott_mask(spec, index, rng)
            elif isinstance(spec, DownloadFailure):
                mask = self._edge_mask(spec, index, rng)
                download |= mask
                window = self._window_mask(spec.start, spec.end, spec.edge)
                backoff[window] = np.maximum(backoff[window], spec.max_backoff)
            elif isinstance(spec, MarketOutage):
                blocked[spec.start : spec.end] = True
            elif isinstance(spec, TradeRejection):
                end = horizon if spec.end is None else min(spec.end, horizon)
                draws = rng.get(f"{spec.kind}-{index}").random(horizon)
                hits = draws < spec.probability
                hits[: spec.start] = False
                hits[end:] = False
                blocked |= hits
            else:  # future spec kinds must be wired here explicitly
                raise TypeError(f"injector cannot realize {type(spec).__name__}")

        # Realized once and frozen: the mask accessors below hand out the
        # arrays themselves, so a caller cannot rewrite the realization.
        for mask in (offline, feedback, download, backoff, blocked):
            mask.flags.writeable = False
        self._offline = offline
        self._feedback_lost = feedback
        self._download_failed = download
        self._backoff_cap = backoff
        self._trade_blocked = blocked
        #: Whether any per-edge fault can fire (fast-path guard for callers).
        self.has_edge_faults = bool(
            offline.any() or feedback.any() or download.any()
        )

    def _check_edge(self, edge: int) -> None:
        if edge >= self.num_edges:
            raise ValueError(
                f"fault targets edge {edge}, scenario has {self.num_edges} edges"
            )

    def _window_mask(
        self, start: int, end: int | None, edge: int | None
    ) -> np.ndarray:
        mask = np.zeros((self.horizon, self.num_edges), dtype=bool)
        stop = self.horizon if end is None else min(end, self.horizon)
        if edge is None:
            mask[start:stop, :] = True
        else:
            self._check_edge(edge)
            mask[start:stop, edge] = True
        return mask

    def _edge_mask(self, spec, index: int, rng: RngFactory) -> np.ndarray:
        """Bernoulli realization of a per-edge probabilistic spec."""
        draws = rng.get(f"{spec.kind}-{index}").random(
            (self.horizon, self.num_edges)
        )
        return (draws < spec.probability) & self._window_mask(
            spec.start, spec.end, spec.edge
        )

    def _gilbert_elliott_mask(
        self, spec: GilbertElliottLoss, index: int, rng: RngFactory
    ) -> np.ndarray:
        """Realize a bursty two-state loss channel per edge.

        One vectorized draw from the spec's stream supplies both the state
        transitions (``u[0]``) and the per-slot loss draws (``u[1]``), so
        realization stays a single consumption of the named stream.  Chains
        start good and evolve slot by slot; the loss probability applied at
        each slot is the state's (``loss_good`` / ``loss_bad``).
        """
        u = rng.get(f"{spec.kind}-{index}").random(
            (2, self.horizon, self.num_edges)
        )
        bad = np.zeros(self.num_edges, dtype=bool)
        loss_p = np.empty((self.horizon, self.num_edges))
        for t in range(self.horizon):
            flip = np.where(bad, u[0, t] < spec.p_good, u[0, t] < spec.p_bad)
            bad = bad ^ flip
            loss_p[t] = np.where(bad, spec.loss_bad, spec.loss_good)
        return (u[1] < loss_p) & self._window_mask(
            spec.start, spec.end, spec.edge
        )

    @property
    def offline_mask(self) -> np.ndarray:
        """Read-only ``(horizon, num_edges)`` mask of edge-down slots."""
        return self._offline

    @property
    def feedback_lost_mask(self) -> np.ndarray:
        """Read-only ``(horizon, num_edges)`` mask of dropped slot losses."""
        return self._feedback_lost

    @property
    def download_failed_mask(self) -> np.ndarray:
        """Read-only ``(horizon, num_edges)`` mask of failing downloads."""
        return self._download_failed

    @property
    def backoff_caps(self) -> np.ndarray:
        """Read-only ``(horizon, num_edges)`` retry-backoff caps, in slots."""
        return self._backoff_cap

    def edge_offline(self, t: int, edge: int) -> bool:
        """Whether ``edge`` is down (serving nothing) at slot ``t``."""
        return bool(self._offline[t, edge])

    def feedback_lost(self, t: int, edge: int) -> bool:
        """Whether the slot-loss observation at ``(t, edge)`` is dropped."""
        return bool(self._feedback_lost[t, edge])

    def download_failed(self, t: int, edge: int) -> bool:
        """Whether a model download attempted at ``(t, edge)`` fails."""
        return bool(self._download_failed[t, edge])

    def backoff_cap(self, t: int, edge: int) -> int:
        """Retry-backoff cap (in slots) governing a failure at ``(t, edge)``."""
        return int(self._backoff_cap[t, edge])

    def trade_blocked(self, t: int) -> bool:
        """Whether the slot-``t`` trade cannot execute (outage or rejection)."""
        return bool(self._trade_blocked[t])

    def summary(self) -> dict[str, int]:
        """Realized fault counts by category (for CLI / trace summaries)."""
        return {
            "edge_offline_slots": int(self._offline.sum()),
            "feedback_lost_slots": int(self._feedback_lost.sum()),
            "download_failure_slots": int(self._download_failed.sum()),
            "trade_blocked_slots": int(self._trade_blocked.sum()),
        }
