"""The request model: SLA classes and their deadlines.

Everything below the ingress tier is slot-granular arrival *counts*
(``M_i^t``); the ingress tier counts requests per edge, SLA class and
arrival slot.  A request's deadline is ``arrival_slot + deadline_slots``
for its class, clamped to the last slot of the horizon so every request
can always be released before the run ends (the accounting equation
stays exact by construction).  An :class:`SlaClass` describes one service
tier: its share of the thinned traffic, its deadline budget, its release
priority, and whether the router may voluntarily defer it to a cheaper
slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SlaClass", "clamp_deadline"]


@dataclass(frozen=True)
class SlaClass:
    """One service tier of the ingress traffic mix.

    Parameters
    ----------
    name:
        Stable identifier (used in stats, config, and wait accounting).
    share:
        Fraction of thinned traffic assigned to this class; shares across
        a mix must sum to 1.
    deadline_slots:
        Deadline budget in slots: a request arriving at ``t`` must be
        released by ``t + deadline_slots`` to count as a deadline hit.
    priority:
        Release priority — higher releases first when slot capacity binds.
    deferrable:
        Whether the router may hold requests of this class past their
        arrival slot to chase a cheaper forecast slot (within deadline).
    """

    name: str
    share: float
    deadline_slots: int
    priority: int
    deferrable: bool

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLA class name must be non-empty")
        if not 0.0 < self.share <= 1.0:
            raise ValueError(
                f"class {self.name!r}: share must be in (0, 1], got {self.share}"
            )
        if self.deadline_slots < 0:
            raise ValueError(
                f"class {self.name!r}: deadline_slots must be >= 0, "
                f"got {self.deadline_slots}"
            )


def clamp_deadline(
    arrival_slot: int | np.ndarray, deadline_slots: int | np.ndarray, horizon: int
) -> np.ndarray:
    """The effective deadline slot: arrival + budget, clamped into the run.

    Clamping to ``horizon - 1`` guarantees the final slot's forced flush
    releases every queued request, which is what makes request accounting
    (``in == served + shed + offline + dropped``) exact at end of run.
    Arrivals and budgets may be arrays that broadcast together.
    """
    return np.minimum(np.add(arrival_slot, deadline_slots), horizon - 1)
