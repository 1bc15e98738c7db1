"""Request generation by thinning the slot-granular arrival counts.

The ingress tier does not invent a new arrival process: it *thins* the
count the base stream adapter produced for each slot into per-SLA-class
request counts, with one multinomial draw per edge for a column of slots.
A multinomial partitions its total exactly, so the class counts sum to
the base count for every slot, seed and shape: conservation is exact by
construction, not by test.  The draw comes from the dedicated
``ingress-thin-<edge>`` stream (:func:`repro.utils.rng.thinning_stream`),
so the base arrival/data streams are never perturbed and a
deferral-disabled ingress run feeds the kernels bit-identical inputs.
"""

from __future__ import annotations

import numpy as np

from repro.ingress.request import SlaClass
from repro.utils.rng import thinning_stream

__all__ = ["RequestThinner"]


class RequestThinner:
    """Splits one edge's per-slot counts across the SLA mix."""

    def __init__(self, seed: int, edge: int, classes: tuple[SlaClass, ...]) -> None:
        self.seed = int(seed)
        self.edge = int(edge)
        self.classes = classes
        shares = np.asarray([cls.share for cls in classes], dtype=float)
        # Guard against float drift so numpy's multinomial never rejects.
        self._shares = shares / shares.sum()
        self._rng = thinning_stream(self.seed, self.edge)

    def split(self, counts: int | np.ndarray) -> np.ndarray:
        """Class counts of one slot, or ``(slots, classes)`` for a column.

        Each slot's classes sum to its count exactly; a negative count
        raises ``ValueError``.  A column takes one ``multinomial`` call,
        which draws slot by slot exactly as per-slot calls would, values
        and final stream state alike.  Quiet slots draw too, so the stream
        position stays a pure function of the count sequence (which the
        base adapter makes deterministic).
        """
        return self._rng.multinomial(counts, self._shares)

    def state_dict(self) -> dict[str, object]:
        """Picklable stream state (for quiescent snapshots)."""
        return {"rng": self._rng.bit_generator.state}

    def load_state(self, state: dict[str, object]) -> None:
        """Restore the stream captured by :meth:`state_dict`."""
        self._rng.bit_generator.state = state["rng"]
