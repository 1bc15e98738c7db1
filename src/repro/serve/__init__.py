"""repro.serve: the async streaming edge-fleet runtime.

Runs Algorithm 1 (per-edge online model selection) in one asyncio slot
loop per shard worker and Algorithm 2 (central carbon-allowance trading) in
the parent, over pluggable stream adapters, with bounded-queue
backpressure, periodic snapshot/restore, a stdlib health endpoint, and a
deterministic virtual-clock mode that is bit-identical to
:meth:`repro.sim.simulator.Simulator.run`.

One runtime, :class:`~repro.serve.shard.ShardRuntime`, serves every
configuration: ``num_workers=0`` runs the edges in-process on an inline
worker, ``num_workers >= 1`` shards them across worker processes.  A
wall-clock soak harness (:mod:`repro.serve.soak`, ``repro soak``) drives it
under deterministic load shapes (:mod:`repro.serve.load`).
"""

from repro.serve.adapters import (
    PoissonAdapter,
    ShapeAdapter,
    StreamAdapter,
    TraceReplayAdapter,
    arrival_counts_from_trace,
    make_adapters,
)
from repro.serve.chaos import (
    ChaosPlan,
    RandomKills,
    TransportDrop,
    WorkerChaos,
    WorkerKill,
    WorkerStall,
    load_chaos_plan,
)
from repro.serve.chaos import realize as realize_chaos
from repro.serve.clock import SlotClock, VirtualClock, WallClock, release_target
from repro.serve.config import ServeConfig
from repro.serve.http import StatusServer
from repro.serve.load import SHAPE_NAMES, make_load_grid, shape_profile
from repro.serve.queues import QueueStats, ShardAdmission
from repro.serve.reconfig import (
    AddEdge,
    Rebalance,
    ReconfigPlan,
    RemoveEdge,
    load_reconfig_plan,
)
from repro.serve.runtime import build_serve_kernels
from repro.serve.shard import ShardRuntime, shard_edges
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    RunState,
    load_snapshot,
    save_snapshot,
)
from repro.serve.soak import SoakReport, run_soak

__all__ = [
    "SHAPE_NAMES",
    "SNAPSHOT_VERSION",
    "AddEdge",
    "ChaosPlan",
    "PoissonAdapter",
    "QueueStats",
    "RandomKills",
    "Rebalance",
    "ReconfigPlan",
    "RemoveEdge",
    "RunState",
    "ServeConfig",
    "ShapeAdapter",
    "ShardAdmission",
    "ShardRuntime",
    "SlotClock",
    "SoakReport",
    "StatusServer",
    "StreamAdapter",
    "TraceReplayAdapter",
    "TransportDrop",
    "VirtualClock",
    "WallClock",
    "WorkerChaos",
    "WorkerKill",
    "WorkerStall",
    "arrival_counts_from_trace",
    "build_serve_kernels",
    "load_chaos_plan",
    "load_reconfig_plan",
    "load_snapshot",
    "make_adapters",
    "make_load_grid",
    "realize_chaos",
    "release_target",
    "run_soak",
    "save_snapshot",
    "shape_profile",
    "shard_edges",
]
