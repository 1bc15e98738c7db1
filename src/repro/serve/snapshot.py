"""Snapshot persistence: atomic pickle of full controller state.

A snapshot is one pickle of the runtime's explicit state dict — bandit
weights and block counters (inside the selection policies), download-retry
state, pending delayed feedback, the trading policy's dual state, the
ledger, the market's trade log, adapter positions, and the partial result
arrays.  Everything is pickled in a *single* payload, so one file holds
one consistent slot boundary.

Writes are atomic (temp file + ``os.replace``) so a crash mid-snapshot
leaves the previous snapshot intact.  Tracers are never pickled — the
stateful classes strip them via ``__getstate__`` and the restoring runtime
rebinds its own.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

__all__ = ["SNAPSHOT_VERSION", "load_snapshot", "save_snapshot"]

#: Bumped on incompatible layout changes; loaders reject other versions
#: except the ones :func:`load_snapshot` migrates.
SNAPSHOT_VERSION = 2


def save_snapshot(path: str | Path, state: dict[str, object]) -> None:
    """Atomically persist a runtime state dict to ``path``."""
    target = Path(path)
    payload = dict(state)
    payload["version"] = SNAPSHOT_VERSION
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, target)


def load_snapshot(path: str | Path) -> dict[str, object]:
    """Load a state dict persisted by :func:`save_snapshot`.

    Version 1 files predate the in-process worker: their config's
    ``num_workers=1`` meant "in-process", which is ``0`` now, so it is
    rewritten and the run resumes where it was written.  A config that
    names the removed ``dataset`` adapter resumes on ``poisson``: both drew
    the same arrivals, and the poisson adapter reads only the
    ``arrivals`` of the old adapter state.
    """
    with Path(path).open("rb") as handle:
        payload = pickle.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"snapshot {path} does not hold a state dict")
    version = payload.get("version")
    if version == 1:
        config = payload.get("config")
        if isinstance(config, dict) and config.get("num_workers") == 1:
            payload["config"] = {**config, "num_workers": 0}
        payload["version"] = version = SNAPSHOT_VERSION
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"snapshot {path} has version {version!r}, "
            f"this runtime reads version {SNAPSHOT_VERSION}"
        )
    config = payload.get("config")
    if isinstance(config, dict) and config.get("adapter") == "dataset":
        payload["config"] = {**config, "adapter": "poisson"}
    return payload
