"""Stream adapters: where each edge's per-slot workload comes from.

Three sources, all reusing existing subsystems:

* :class:`PoissonAdapter` — synthetic arrivals from the scenario's workload
  trace via :class:`repro.data.streams.ArrivalProcess` (the simulator's own
  ``arrivals-<edge>`` stream, so serve runs see the identical workload);
* :class:`TraceReplayAdapter` — counts replayed verbatim from the
  ``arrival`` events of a recorded JSONL trace (:mod:`repro.obs`);
* :class:`ShapeAdapter` — counts from a seeded load-shape grid
  (:mod:`repro.serve.load`) for the soak harness.

Adapters produce counts only, a column of consecutive slots at a time;
each edge kernel draws its own pool indices.  They are synchronous
state machines whose state is plain data, restored into the adapter a
config built.  A :class:`ColumnFeed` reads a set of edges'
adapters as one count matrix per range of slots: a shard worker's slot
loop (:mod:`repro.serve.shard`) drives one over its edges, and the serve
parent one over the edges a reconfiguration took out of the fleet.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from repro.data.streams import ArrivalProcess
from repro.obs.sinks import read_events
from repro.sim.scenario import Scenario

__all__ = [
    "ColumnFeed",
    "PoissonAdapter",
    "ShapeAdapter",
    "StreamAdapter",
    "TraceReplayAdapter",
    "arrival_counts_from_trace",
    "make_adapters",
]


class StreamAdapter:
    """Base adapter: produces one edge's counts, slots in order."""

    name = "base"

    def __init__(self, edge: int) -> None:
        self.edge = int(edge)

    def column(self, start: int, stop: int) -> np.ndarray:
        """The counts of slots ``start..stop-1`` for this adapter's edge."""
        raise NotImplementedError

    def state_dict(self) -> dict[str, object]:
        """Plain-data resume state (default: stateless)."""
        return {}

    def load_state(self, state: dict[str, object]) -> None:
        """Restore state captured by :meth:`state_dict` (default: nothing)."""


class PoissonAdapter(StreamAdapter):
    """Synthetic Poisson arrivals over the scenario's workload trace."""

    name = "poisson"

    def __init__(self, edge: int, arrivals: ArrivalProcess) -> None:
        super().__init__(edge)
        self.arrivals = arrivals

    def column(self, start: int, stop: int) -> np.ndarray:
        return self.arrivals.sample_span(start, stop)

    def state_dict(self) -> dict[str, object]:
        """The arrival stream's bit-generator state: the means are config."""
        return {"rng": self.arrivals.rng.bit_generator.state}

    def load_state(self, state: dict[str, object]) -> None:
        self.arrivals.rng.bit_generator.state = state["rng"]


class TraceReplayAdapter(StreamAdapter):
    """Replays recorded per-slot arrival counts from a JSONL trace.

    Stateless by construction: the count for slot ``t`` is a pure lookup,
    so snapshots need not capture anything and a restored run continues
    from any slot.
    """

    name = "replay"

    def __init__(self, edge: int, counts: np.ndarray) -> None:
        super().__init__(edge)
        self.counts = np.asarray(counts, dtype=np.int64)

    def column(self, start: int, stop: int) -> np.ndarray:
        return self.counts[start:stop]


class ShapeAdapter(TraceReplayAdapter):
    """Replays a deterministic load-shape grid (:mod:`repro.serve.load`).

    Mechanically a :class:`TraceReplayAdapter` over a generated count
    column: stateless, snapshot-free, and rebuildable from the serve config
    alone — sharded workers derive their own columns without shipping the
    grid over the pipe.
    """

    name = "shape"


class ColumnFeed:
    """A set of edges' adapters, read as one count matrix per range of slots.

    Rows follow the order of ``adapters``; each draw reads one column per
    edge.  States are exported and restored per edge.
    """

    def __init__(self, adapters: Mapping[int, StreamAdapter]) -> None:
        self.adapters = dict(adapters)
        self.edges = tuple(self.adapters)

    def draw(self, start: int, stop: int) -> np.ndarray:
        """Counts of slots ``start..stop-1``: one row per edge, one column per slot."""
        columns = [adapter.column(start, stop) for adapter in self.adapters.values()]
        return np.array(columns, dtype=np.int64).reshape(len(columns), stop - start)

    def next_item(self, t: int) -> np.ndarray:
        """Slot ``t``'s counts, one per edge."""
        return self.draw(t, t + 1)[:, 0]

    def state_dict(self) -> dict[int, dict[str, object]]:
        """Each edge's plain-data adapter state."""
        return {e: adapter.state_dict() for e, adapter in self.adapters.items()}

    def load_state(self, states: Mapping[int, dict[str, object]]) -> None:
        """Restore the edges in ``states`` (a subset is fine)."""
        for e, state in states.items():
            self.adapters[e].load_state(state)


def arrival_counts_from_trace(
    path: str | Path, *, horizon: int, num_edges: int
) -> np.ndarray:
    """Extract the ``(horizon, num_edges)`` arrival-count grid from a trace.

    Every cell must be covered by exactly one ``arrival`` event — a partial
    trace cannot drive a full replay, and duplicates would mask a corrupt
    log.
    """
    counts = np.full((horizon, num_edges), -1, dtype=int)
    for event in read_events(path):
        if event.type != "arrival":
            continue
        t, edge = int(event.t), int(event.edge)
        if not (0 <= t < horizon and 0 <= edge < num_edges):
            raise ValueError(
                f"trace arrival at (t={t}, edge={edge}) is outside the "
                f"({horizon}, {num_edges}) grid"
            )
        if counts[t, edge] >= 0:
            raise ValueError(
                f"duplicate arrival event at (t={t}, edge={edge})"
            )
        counts[t, edge] = int(event.count)
    missing = int((counts < 0).sum())
    if missing:
        raise ValueError(
            f"trace covers only {counts.size - missing} of {counts.size} "
            f"(slot, edge) cells; cannot replay a partial trace"
        )
    return counts


def make_adapters(
    name: str,
    scenario: Scenario,
    arrival_processes: list[ArrivalProcess],
    *,
    replay_log: str | Path | None = None,
    load_counts: np.ndarray | None = None,
) -> list[StreamAdapter]:
    """Build one adapter per edge for the named source."""
    num_edges = scenario.num_edges
    if name == "shape":
        if load_counts is None:
            raise ValueError(
                'adapter "shape" requires a load grid '
                "(see repro.serve.load.make_load_grid)"
            )
        counts = np.asarray(load_counts, dtype=int)
        if counts.shape != (scenario.horizon, num_edges):
            raise ValueError(
                f"load grid shape {counts.shape} does not match "
                f"({scenario.horizon}, {num_edges})"
            )
        return [ShapeAdapter(i, counts[:, i]) for i in range(num_edges)]
    if name == "poisson":
        return [
            PoissonAdapter(i, arrival_processes[i]) for i in range(num_edges)
        ]
    if name == "replay":
        if replay_log is None:
            raise ValueError('adapter "replay" requires a trace path')
        counts = arrival_counts_from_trace(
            replay_log, horizon=scenario.horizon, num_edges=num_edges
        )
        return [
            TraceReplayAdapter(i, counts[:, i]) for i in range(num_edges)
        ]
    raise ValueError(f"unknown adapter {name!r}")
