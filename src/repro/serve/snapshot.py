"""Snapshot persistence: one run-state record per quiescent slot boundary.

A :class:`RunState` is the whole description of a quiescent serve run: the
config and label, the next slot, the trading kernel's state (Algorithm 2's
dual state, the ledger, the market's trade log), the result arrays' prefix,
every edge's entry in the runtime's per-edge book, the parent's own adapter
state for each inactive edge, the run's request stats and ``serve/*`` and
``ingress/*`` counters, and the reconfig plan the run follows.  The active
edges and the worker count are not stored: they follow from the plan and
``next_slot``.  Everything is pickled in a *single* payload, so one file
holds one consistent slot boundary.

Each edge's kernel and adapter state is plain data: arrays, numbers and
the bit-generator states of its streams, never a policy, ``Generator`` or
``ArrivalProcess`` object.  The config rebuilds those objects, and a
restore loads the data into them.

Writes are atomic (temp file + ``os.replace``) so a crash mid-snapshot
leaves the previous snapshot intact.  Tracers are never pickled — the
trading kernel's classes strip them via ``__getstate__`` and the restoring
runtime rebinds its own; an edge's state never holds one.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.ingress.stats import IngressStats

__all__ = [
    "SNAPSHOT_VERSION",
    "EdgeState",
    "RunState",
    "load_snapshot",
    "save_snapshot",
]

#: Bumped on incompatible layout changes; loaders reject other versions
#: except the ones :func:`load_snapshot` migrates.
SNAPSHOT_VERSION = 4


@dataclass(frozen=True)
class EdgeState:
    """One edge's last-good state in the runtime's per-edge book.

    ``kernel`` and ``adapter`` are the edge's state dicts as of slot
    ``as_of`` (``None`` for an edge removed before any capture).  ``mode``
    says how the parent folded the stretch since then: ``"live"`` from a
    worker's real outcomes, ``"offline"`` as an inactive edge's rows — which
    tells a (re)spawned worker how to catch the kernel up.
    """

    kernel: dict | None
    adapter: dict | None
    as_of: int
    mode: str = "live"


@dataclass
class RunState:
    """Everything a quiescent serve run is, as of slot ``next_slot``.

    Counters and ingress stats cover the whole run up to ``next_slot``;
    a version-2 file carries neither, so its resume counts from there.
    """

    label: str
    config: dict
    next_slot: int
    trading: dict
    arrays: dict
    #: Every edge's entry in the per-edge book, inactive edges included.
    edges: dict[int, EdgeState]
    #: The parent's own adapter state for each inactive edge.
    parent_adapters: dict[int, dict] = field(default_factory=dict)
    ingress: IngressStats | None = None
    #: The runtime's ``serve/*`` and ``ingress/*`` counter values.
    counters: dict[str, int] = field(default_factory=dict)
    #: The run's :class:`~repro.serve.reconfig.ReconfigPlan`, as ``to_dict``.
    reconfig: dict | None = None


def save_snapshot(path: str | Path, record: RunState) -> None:
    """Atomically persist a run-state record to ``path``."""
    target = Path(path)
    payload = {**vars(record), "version": SNAPSHOT_VERSION}
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, target)


def load_snapshot(path: str | Path) -> RunState:
    """Load a run-state record persisted by :func:`save_snapshot`.

    Older files migrate in a chain.  Version 1 files predate the in-process
    worker: their config's ``num_workers=1`` meant "in-process", which is
    ``0`` now, so it is rewritten and the run resumes where it was written.
    Version 2 files hold positional per-edge lists, every edge live as of
    ``next_slot``, and no counters, ingress stats or plan.  A version-2
    config that names the removed ``dataset`` adapter resumes on
    ``poisson``: both drew the same arrivals, and the poisson adapter reads
    only the ``arrivals`` of the old adapter state.  Version 3 files hold
    objects where version 4 holds their state: each kernel state's policy
    and data ``Generator``, and each poisson adapter state's
    ``ArrivalProcess`` (under ingress, its ``base``), in the book and in
    ``parent_adapters``.
    """
    with Path(path).open("rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot {path} does not hold a state dict")
    version = payload.pop("version", None)
    if version == 1:
        config = payload.get("config")
        if isinstance(config, dict) and config.get("num_workers") == 1:
            payload["config"] = {**config, "num_workers": 0}
        version = 2
    if version == 2:
        next_slot = payload["next_slot"]
        kernels, adapters = payload.pop("edges"), payload.pop("adapters")
        payload["edges"] = {
            e: EdgeState(kernel, adapter, next_slot)
            for e, (kernel, adapter) in enumerate(zip(kernels, adapters))
        }
        if payload["config"].get("adapter") == "dataset":
            payload["config"] = {**payload["config"], "adapter": "poisson"}
        version = 3
    if version == 3:
        payload["edges"] = {
            e: replace(
                entry,
                kernel=_plain_kernel(entry.kernel),
                adapter=_plain_adapter(entry.adapter),
            )
            for e, entry in payload["edges"].items()
        }
        payload["parent_adapters"] = {
            e: _plain_adapter(state)
            for e, state in payload.get("parent_adapters", {}).items()
        }
        version = SNAPSHOT_VERSION
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {path} has version {version!r}, "
            f"this runtime reads version {SNAPSHOT_VERSION}"
        )
    return RunState(**payload)


def _plain_kernel(state: dict | None) -> dict | None:
    """A version-3 kernel state with its policy and data stream as state."""
    if state is None:
        return None
    return {
        **state,
        "policy": state["policy"].state_dict(),
        "data_rng": state["data_rng"].bit_generator.state,
    }


def _plain_adapter(state: dict | None) -> dict | None:
    """A version-3 adapter state with its ``ArrivalProcess`` as stream state."""
    if state is None:
        return None
    if "base" in state:
        return {**state, "base": _plain_adapter(state["base"])}
    if "arrivals" in state:
        return {"rng": state["arrivals"].rng.bit_generator.state}
    return state
