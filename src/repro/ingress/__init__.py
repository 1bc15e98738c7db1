"""Request-level ingress: carbon-aware routing above the slot kernels.

The stack below this package is slot-granular — arrival *counts*
``M_i^t`` flow into :class:`~repro.sim.kernel.EdgeSlotKernel` and the
aggregator.  ``repro.ingress`` adds the request level on top, counting
requests per edge, SLA class and arrival slot:

* :mod:`repro.ingress.request` — :class:`SlaClass` tiers and deadlines;
* :mod:`repro.ingress.generator` — deterministic thinning of the base
  slot counts into per-class requests (exact conservation), one draw per
  edge for a column of slots;
* :mod:`repro.ingress.router` — admission, deadline-ordered deferral and
  carbon-aware release with price look-ahead, as count arrays over a
  shard's edges;
* :mod:`repro.ingress.stats` — per-slot stats and run-level accounting;
* :mod:`repro.ingress.adapter` — the seam that disguises the whole tier
  as a :class:`~repro.serve.adapters.ColumnFeed`.

Enable it with ``ServeConfig(ingress=IngressConfig().to_dict())``, or on
the CLI via ``repro serve --ingress [CONFIG.json]`` and ``repro soak
--ingress``.
"""

from repro.ingress.adapter import IngressAdapter
from repro.ingress.config import DEFAULT_CLASSES, IngressConfig
from repro.ingress.generator import RequestThinner
from repro.ingress.request import SlaClass, clamp_deadline
from repro.ingress.router import IngressRouter
from repro.ingress.stats import IngressStats, SlotRequests, resolve_payload

__all__ = [
    "DEFAULT_CLASSES",
    "IngressAdapter",
    "IngressConfig",
    "IngressRouter",
    "IngressStats",
    "RequestThinner",
    "SlaClass",
    "SlotRequests",
    "clamp_deadline",
    "resolve_payload",
]
