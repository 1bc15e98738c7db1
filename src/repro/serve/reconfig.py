"""Live fleet reconfiguration plans for the sharded edge tier.

A :class:`ReconfigPlan` declares fleet-shape changes to apply at slot
*barriers* during a sharded run: :class:`AddEdge` / :class:`RemoveEdge`
toggle membership of an edge in the *active set* (over the scenario's
fixed edge capacity), and :class:`Rebalance` changes the worker count.
Plans are JSON round-trippable and CLI-loadable
(``repro serve --reconfig PLAN.json``), mirroring
:class:`~repro.faults.plan.FaultPlan`.

Determinism contract
--------------------
A barrier is a quiescent slot boundary: the parent caps releases at the
next barrier, drains the whole fleet (every worker captures state and
exits), applies the ops, rescales the trading kernel by the active-count
ratio, repartitions the active edges with
:func:`~repro.serve.shard.shard_edges`, and respawns.  Because workers
rebuild kernels from the same name-keyed RNG streams and restore the
captured per-edge state, a reconfigured run is bit-reproducible against
itself; and because a factor-1.0 trading rescale is exact and inactive
edges never existed in a *no-op* plan (e.g. a bare :class:`Rebalance` to
the same worker count), a no-op-reconfigured virtual-clock run is
bit-identical to the unreconfigured golden digests.  Inactive edges are
folded as offline rows carrying the arrivals the parent's copy of their
adapter still offers, so the accounting equation ``in == served + shed +
offline`` holds across any plan and no plan changes the offered load.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

__all__ = [
    "AddEdge",
    "RECONFIG_OPS",
    "Rebalance",
    "ReconfigOp",
    "ReconfigPlan",
    "RemoveEdge",
    "apply_op",
    "load_reconfig_plan",
    "register_reconfig",
]

#: Registry of op kind tag -> op class, populated by ``register_reconfig``.
RECONFIG_OPS: dict[str, type["ReconfigOp"]] = {}


def register_reconfig(cls: type["ReconfigOp"]) -> type["ReconfigOp"]:
    """Class decorator adding a reconfig op to :data:`RECONFIG_OPS`."""
    if cls.kind in RECONFIG_OPS:
        raise ValueError(f"duplicate reconfig op tag {cls.kind!r}")
    RECONFIG_OPS[cls.kind] = cls
    return cls


@dataclass(frozen=True)
class ReconfigOp:
    """Base reconfiguration op, applied at slot barrier ``at``."""

    at: int

    #: Stable wire tag written to the ``"kind"`` key of the JSON form.
    kind: ClassVar[str] = "reconfig"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"at must be non-negative, got {self.at}")

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping: the fields plus the ``"kind"`` tag."""
        return {"kind": self.kind, **dataclasses.asdict(self)}


@register_reconfig
@dataclass(frozen=True)
class AddEdge(ReconfigOp):
    """Activate edge ``edge`` (must be inactive) from slot ``at`` on.

    The edge joins with fresh kernel state unless it was active before
    (re-adds restore the state captured when it was removed) and silently
    catches up its RNG streams over the slots it missed.
    """

    edge: int = 0

    kind: ClassVar[str] = "add_edge"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.edge < 0:
            raise ValueError(f"edge must be non-negative, got {self.edge}")


@register_reconfig
@dataclass(frozen=True)
class RemoveEdge(ReconfigOp):
    """Deactivate edge ``edge`` (must be active) from slot ``at`` on."""

    edge: int = 0

    kind: ClassVar[str] = "remove_edge"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.edge < 0:
            raise ValueError(f"edge must be non-negative, got {self.edge}")


@register_reconfig
@dataclass(frozen=True)
class Rebalance(ReconfigOp):
    """Repartition the active edges across ``num_workers`` workers.

    ``Rebalance`` to the current worker count is the canonical *no-op*
    plan: the fleet drains, respawns, and must stay bit-identical to an
    unreconfigured run.
    """

    num_workers: int = 1

    kind: ClassVar[str] = "rebalance"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )


@dataclass(frozen=True)
class ReconfigPlan:
    """An immutable, barrier-ordered collection of reconfiguration ops."""

    ops: tuple[ReconfigOp, ...] = ()

    def __post_init__(self) -> None:
        for op in self.ops:
            if not isinstance(op, ReconfigOp):
                raise TypeError(
                    f"reconfig plan entries must be ReconfigOp, got {op!r}"
                )
        object.__setattr__(
            self, "ops", tuple(sorted(self.ops, key=lambda op: op.at))
        )

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def is_empty(self) -> bool:
        return not self.ops

    def barriers(self) -> tuple[int, ...]:
        """Distinct barrier slots, ascending."""
        return tuple(sorted({op.at for op in self.ops}))

    def ops_at(self, slot: int) -> tuple[ReconfigOp, ...]:
        """Every op scheduled at barrier ``slot``, in plan order."""
        return tuple(op for op in self.ops if op.at == slot)

    def to_dict(self) -> dict[str, object]:
        return {"reconfig": [op.as_dict() for op in self.ops]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ReconfigPlan":
        entries = payload.get("reconfig")
        if not isinstance(entries, list):
            raise ValueError('reconfig plan JSON must carry a "reconfig" list')
        ops = []
        for entry in entries:
            fields = dict(entry)
            kind = fields.pop("kind", None)
            op_cls = RECONFIG_OPS.get(kind)
            if op_cls is None:
                raise ValueError(
                    f"unknown reconfig op {kind!r}; "
                    f"expected one of {sorted(RECONFIG_OPS)}"
                )
            try:
                ops.append(op_cls(**fields))
            except TypeError as exc:
                raise ValueError(f"bad reconfig op {entry!r}: {exc}") from exc
        return cls(ops=tuple(ops))

    @classmethod
    def from_json(cls, text: str) -> "ReconfigPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("reconfig plan JSON must hold an object")
        return cls.from_dict(payload)

    def fleet_at(
        self, *, capacity: int, num_workers: int, upto_slot: int
    ) -> tuple[tuple[int, ...], int]:
        """The (active edges, worker count) after every op with ``at <=
        upto_slot``, from all ``capacity`` edges on ``num_workers`` workers.

        A run derives the fleet it starts with this way, fresh or resumed:
        a snapshot records the plan and its slot, and no fleet of its own.
        """
        active = set(range(capacity))
        workers = num_workers
        for op in self.ops:
            if op.at > upto_slot:
                break
            active, workers = apply_op(op, active, workers, capacity)
        return tuple(sorted(active)), workers


def apply_op(
    op: ReconfigOp, active: set[int], num_workers: int, capacity: int
) -> tuple[set[int], int]:
    """Apply one op to ``(active, num_workers)``, validating fleet limits."""
    active = set(active)
    if isinstance(op, AddEdge):
        if op.edge >= capacity:
            raise ValueError(
                f"add_edge at slot {op.at}: edge {op.edge} exceeds the "
                f"scenario capacity of {capacity} edges"
            )
        if op.edge in active:
            raise ValueError(
                f"add_edge at slot {op.at}: edge {op.edge} is already active"
            )
        active.add(op.edge)
    elif isinstance(op, RemoveEdge):
        if op.edge not in active:
            raise ValueError(
                f"remove_edge at slot {op.at}: edge {op.edge} is not active"
            )
        if len(active) == 1:
            raise ValueError(
                f"remove_edge at slot {op.at} would leave the fleet empty"
            )
        active.discard(op.edge)
    elif isinstance(op, Rebalance):
        num_workers = op.num_workers
    else:  # pragma: no cover - registry guards construction
        raise TypeError(f"unknown reconfig op {op!r}")
    return active, num_workers


def load_reconfig_plan(path: str | Path) -> ReconfigPlan:
    """Load a :class:`ReconfigPlan` from a JSON file."""
    return ReconfigPlan.from_json(Path(path).read_text(encoding="utf-8"))
