"""Deterministic chaos plans for the sharded edge tier.

A *chaos plan* declares, ahead of a soak or serve run, which
infrastructure failures the shard supervisor must heal through.  It
mirrors :mod:`repro.faults.plan` — frozen spec dataclasses with stable
``kind`` tags in a JSON-round-trippable container — but targets the
*process* layer rather than the simulated system:

* :class:`WorkerKill` — worker ``worker`` dies abruptly (``os._exit``,
  SIGKILL-like: its current slot goes unreported) when it batches slot
  ``at``.
* :class:`WorkerStall` — worker ``worker`` blocks its event loop for
  ``seconds`` when it batches slot ``at`` — heartbeats stop too, which is
  the point: a stalled worker looks exactly like a hung one.
* :class:`TransportDrop` — ``count`` consecutive frame transmissions in
  worker ``worker`` fail with a transient ``EINTR`` starting at slot
  ``at``, exercising the bounded retry in :mod:`repro.serve.frames`.
* :class:`RandomKills` — seeded probabilistic kills: each worker draws
  one uniform variate per slot in ``[start, end)`` from the named stream
  ``"random_kills-<spec index>"`` and dies at the first slot whose draw
  falls below ``probability`` (at most ``max_per_worker`` kills each).

:func:`realize` resolves a plan against a concrete fleet into one
:class:`WorkerChaos` schedule per worker — a pure function of
``(plan, num_workers, horizon, seed)``, so a chaos run is bit-reproducible
and an empty plan realizes to nothing.  Schedules are keyed by worker
index; the serve runtime realizes a plan against the largest worker count
its reconfig plan reaches, so a worker a ``rebalance`` adds gets its
schedule too.  A respawned worker incarnation inherits its predecessor's
schedule but only *live* slots trigger injections, so a kill consumed
before a restart does not re-fire during replay.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from repro.utils.rng import RngFactory

__all__ = [
    "CHAOS_KINDS",
    "ChaosPlan",
    "ChaosSpec",
    "RandomKills",
    "TransportDrop",
    "WorkerChaos",
    "WorkerKill",
    "WorkerStall",
    "load_chaos_plan",
    "realize",
    "register_chaos",
]

#: Registry of chaos kind tag -> spec class, populated by ``register_chaos``.
CHAOS_KINDS: dict[str, type["ChaosSpec"]] = {}


def register_chaos(cls: type["ChaosSpec"]) -> type["ChaosSpec"]:
    """Class decorator adding a chaos spec to :data:`CHAOS_KINDS`."""
    if cls.kind in CHAOS_KINDS:
        raise ValueError(f"duplicate chaos kind tag {cls.kind!r}")
    CHAOS_KINDS[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class ChaosSpec:
    """Base chaos spec: one declared process-layer failure."""

    #: Stable wire tag written to the ``"kind"`` key of the JSON form.
    kind: ClassVar[str] = "chaos"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping: the fields plus the ``"kind"`` tag."""
        return {"kind": self.kind, **dataclasses.asdict(self)}


@register_chaos
@dataclass(frozen=True)
class WorkerKill(ChaosSpec):
    """Worker ``worker`` dies abruptly when it batches slot ``at``."""

    worker: int
    at: int

    kind: ClassVar[str] = "worker_kill"

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")


@register_chaos
@dataclass(frozen=True)
class WorkerStall(ChaosSpec):
    """Worker ``worker`` blocks its loop for ``seconds`` at slot ``at``."""

    worker: int
    at: int
    seconds: float

    kind: ClassVar[str] = "worker_stall"

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if self.seconds <= 0:
            raise ValueError(f"seconds must be positive, got {self.seconds}")


@register_chaos
@dataclass(frozen=True)
class TransportDrop(ChaosSpec):
    """``count`` frame sends in worker ``worker`` fail transiently at ``at``."""

    worker: int
    at: int
    count: int = 1

    kind: ClassVar[str] = "transport_drop"

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be non-negative, got {self.worker}")
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@register_chaos
@dataclass(frozen=True)
class RandomKills(ChaosSpec):
    """Seeded probabilistic worker kills over slots ``[start, end)``.

    ``end=None`` means the horizon.  Realized from the named RNG stream
    ``"random_kills-<spec index>"`` so two runs of the same plan and seed
    inject identical kills.
    """

    probability: float
    start: int = 0
    end: int | None = None
    max_per_worker: int = 1

    kind: ClassVar[str] = "random_kills"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must lie in [0, 1], got {self.probability}"
            )
        if self.start < 0:
            raise ValueError(f"start must be non-negative, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"window [{self.start}, {self.end}) is empty or inverted"
            )
        if self.max_per_worker < 1:
            raise ValueError(
                f"max_per_worker must be >= 1, got {self.max_per_worker}"
            )


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable collection of chaos specs for one run."""

    specs: tuple[ChaosSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, ChaosSpec):
                raise TypeError(
                    f"chaos plan entries must be ChaosSpec, got {spec!r}"
                )

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def to_dict(self) -> dict[str, object]:
        return {"chaos": [spec.as_dict() for spec in self.specs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosPlan":
        entries = payload.get("chaos")
        if not isinstance(entries, list):
            raise ValueError('chaos plan JSON must carry a "chaos" list')
        specs = []
        for entry in entries:
            fields = dict(entry)
            kind = fields.pop("kind", None)
            spec_cls = CHAOS_KINDS.get(kind)
            if spec_cls is None:
                raise ValueError(
                    f"unknown chaos kind {kind!r}; "
                    f"expected one of {sorted(CHAOS_KINDS)}"
                )
            try:
                specs.append(spec_cls(**fields))
            except TypeError as exc:
                raise ValueError(f"bad chaos spec {entry!r}: {exc}") from exc
        return cls(specs=tuple(specs))

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("chaos plan JSON must hold an object")
        return cls.from_dict(payload)


def load_chaos_plan(path: str | Path) -> ChaosPlan:
    """Load a :class:`ChaosPlan` from a JSON file."""
    return ChaosPlan.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class WorkerChaos:
    """One worker's realized injection schedule (picklable, spawn-safe).

    ``kills`` are slot indices; ``stalls`` maps slot -> blocking seconds;
    ``drops`` maps slot -> number of transient transport faults to arm.
    """

    kills: tuple[int, ...] = ()
    stalls: tuple[tuple[int, float], ...] = ()
    drops: tuple[tuple[int, int], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not (self.kills or self.stalls or self.drops)


def realize(
    plan: ChaosPlan | None,
    *,
    num_workers: int,
    horizon: int,
    seed: int,
) -> dict[int, WorkerChaos]:
    """Resolve ``plan`` into one :class:`WorkerChaos` per targeted worker.

    Deterministic in ``(plan, num_workers, horizon, seed)``.  Pass the
    largest worker count the run reaches: :class:`RandomKills` draws one
    row per worker, so a larger count leaves the other workers' draws
    unmoved.  Specs naming a worker the run never has (outside
    ``range(num_workers)``) are still ignored, so a plan written for a
    larger fleet stays loadable on a smaller one.
    """
    if plan is None or plan.is_empty:
        return {}
    kills: dict[int, set[int]] = {}
    stalls: dict[int, dict[int, float]] = {}
    drops: dict[int, dict[int, int]] = {}
    rng = RngFactory(seed)
    for i, spec in enumerate(plan.specs):
        if isinstance(spec, WorkerKill):
            if spec.worker < num_workers:
                kills.setdefault(spec.worker, set()).add(spec.at)
        elif isinstance(spec, WorkerStall):
            if spec.worker < num_workers:
                stalls.setdefault(spec.worker, {})[spec.at] = spec.seconds
        elif isinstance(spec, TransportDrop):
            if spec.worker < num_workers:
                per = drops.setdefault(spec.worker, {})
                per[spec.at] = per.get(spec.at, 0) + spec.count
        elif isinstance(spec, RandomKills):
            end = horizon if spec.end is None else min(spec.end, horizon)
            if end <= spec.start:
                continue
            stream = rng.get(f"{spec.kind}-{i}")
            draws = stream.random((num_workers, end - spec.start))
            for w in range(num_workers):
                hits = [
                    spec.start + int(j)
                    for j in (draws[w] < spec.probability).nonzero()[0]
                ]
                for at in hits[: spec.max_per_worker]:
                    kills.setdefault(w, set()).add(at)
    schedules: dict[int, WorkerChaos] = {}
    for w in set(kills) | set(stalls) | set(drops):
        schedules[w] = WorkerChaos(
            kills=tuple(sorted(kills.get(w, ()))),
            stalls=tuple(sorted(stalls.get(w, {}).items())),
            drops=tuple(sorted(drops.get(w, {}).items())),
        )
    return schedules
