"""The serve runtime: a trading parent over a sharded edge tier.

Topology (one run): the fleet's edges are partitioned contiguously across
workers.  Each worker runs one **slot loop** on its own asyncio loop.  Each
iteration draws every released slot whose start time has passed for all
of its edges at once, as one count matrix from its
:class:`~repro.serve.adapters.ColumnFeed` (the columnar ingress tier when
the config mounts it), admits the matrix into the shard's bounded per-edge
queues with one :class:`~repro.serve.queues.ShardAdmission` (array
operations for every row that fits, blocking or shedding a row that
overflows), then takes and steps the *span* of slots
from the current one that every edge has queued with one call of its
:class:`~repro.sim.kernel.ShardSlotKernel` (the columnar Algorithm-1
engine, or the per-edge kernel steps slot by slot), and sends the span's
one :class:`~repro.sim.kernel.SlotOutcomes` record, under ingress with the
span's request stats, in one SLOT frame.  A span ends at the run's stop,
before a block-mode edge's held burst, and around a chaos slot, which is
stepped alone; snapshots, restart checkpoints and reconfig barriers end it
because releases stop there.  Under a virtual clock the parent releases
one slot at a time, so every span is one slot.  The parent owns the
:class:`~repro.sim.kernel.TradingSlotKernel`, the result arrays, the
release schedule, and snapshot persistence.  The two sides exchange frames
(:mod:`repro.serve.frames`): the parent broadcasts slot releases, workers
report span records, heartbeats prove liveness during long slots, and a
drain handshake ends the run with the ledger intact.

``num_workers=0`` is the in-process mode: one inline worker runs as a task
on an event loop the parent pumps between folds, over an inline link that
hands frames over by reference.  ``num_workers >= 1`` runs that many worker
processes over pickled pipe frames.  Everything above the link — release
capping, folding, snapshots, death policies — is one code path.

Determinism: every worker rebuilds the *full* kernel set from the shared
:class:`~repro.serve.config.ServeConfig` — bit-identical by the name-keyed
RNG stream contract (:func:`~repro.serve.runtime.build_serve_kernels`) —
and steps only its own edges, whose streams are independent of everyone
else's.  The parent merges each slot's shard records into one record in
global edge order, counts its events with array sums, and folds it through
the :class:`~repro.sim.kernel.SlotAggregator` every simulator path folds
through too, so a virtual-clock run at any worker count is bit-identical to
``Simulator.run`` and is locked against the same golden digests.  The
parent splits each span record into its slots on receipt and folds one
slot per ``fold`` call: a slot folds once every worker has reported it,
and per-slot folds keep each slot's release-to-fold latency measurable.

Worker death: the parent multiplexes pipe reads and process sentinels in
one ``multiprocessing.connection.wait`` call, so a crashed worker surfaces
immediately (an inline worker dies only by raising, and its task ending is
its sentinel).  Policy ``"fail"`` raises (attaching the worker-side traceback
when one made it over the wire); ``"degrade"`` marks the dead shard's edges
offline for every remaining slot (zero-cost offline rows, so
``in == served + shed + offline`` still holds exactly), keeps trading every
slot on the surviving emissions, and completes the horizon — surviving
edges' trajectories are untouched because edges only couple through the
trading loop, which does not feed back into selection.

Supervised restart (``on_worker_death="restart"``): releases stop at
every ``restart_state_every``-th slot, and once the parent has folded the
slot before one it asks every worker for its shard state, as plain data,
without waiting; each ``state`` answer enters the per-edge book as it
arrives, as snapshot and reconfig answers do.  When a worker dies, the
parent schedules a respawn after a capped exponential backoff; the new
incarnation restores its edges' book entries, silently re-steps every
slot that was folded or that its predecessor reported, as one span of its
shard kernel, to recover the exact kernel state, steps the *missed* slots
as one all-lost span and reports them as offline outcomes with their real
arrival counts (so the accounting equation — and ``events_in ==
total_events`` — survive a full recovery), and goes live at the release
frontier.  Surviving shards are bit-identical to an unfaulted run.
``max_restarts`` exhaustion falls back to ``degrade`` for that worker.  An
inline worker takes no restart checkpoints; its respawn re-steps from the
newest state the parent's per-edge book holds (the run's start, a
snapshot or a reconfig barrier).

Live reconfiguration: a :class:`~repro.serve.reconfig.ReconfigPlan` applies
``add_edge``/``remove_edge``/``rebalance`` ops at slot barriers — the
parent caps releases at the barrier, drains the fleet (every worker
checkpoints and exits), applies the ops, rescales the trading kernel by
the active-count ratio, repartitions, and respawns.  The parent folds an
inactive edge as offline rows that carry the arrivals its own copy of the
edge's adapter still offers, so the offered load survives the change; a
no-op plan is bit-identical to an unreconfigured run.  Plans run at any
worker count.  A snapshot (one :class:`~repro.serve.snapshot.RunState`) at
a barrier's slot is taken after the barrier, and a run resumed from it
continues the plan and the whole run's accounting.

Deterministic chaos: a :class:`~repro.serve.chaos.ChaosPlan` realizes —
as a pure function of ``(plan, fleet, horizon, seed)`` — into per-worker
kill/stall/transport-drop schedules that fire inside the workers at exact
slot boundaries, which is what the soak harness gates recovery on.  It is
realized against the largest worker count the run's reconfig plan reaches,
so a kill aimed at a worker a ``rebalance`` adds fires too.

Telemetry: the runtime's tracer holds its counters and five stage-latency
:class:`~repro.obs.metrics.Timer` histograms.  Workers ship one
``queue_s`` (feed to step) and one ``serve_s`` (the span step's wall time
over its edge-slots) sample per edge-slot in each SLOT frame, as float
arrays, and the parent folds each into ``serve/stage/queue`` or
``serve/stage/serve`` in one numpy pass per frame.  The parent itself
records ``serve/stage/trade`` (fold + trading step) and
``serve/stage/slot`` (release to fold) once per folded slot, and
``serve/stage/recovery`` (worker death to its first live outcome after a
supervised restart).  ``GET /metrics`` serves the same summaries
that ``repro soak`` reports.
"""

from __future__ import annotations

import asyncio
import bisect
import copy
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs.events import (
    ReconfigAppliedEvent,
    SlotStartEvent,
    SnapshotEvent,
    WorkerDeathEvent,
    WorkerRestartEvent,
    WorkerSpawnEvent,
)
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.serve.adapters import ColumnFeed
from repro.serve.chaos import ChaosPlan, WorkerChaos, realize
from repro.serve.clock import VirtualClock, WallClock, release_target
from repro.serve.config import ServeConfig
from repro.serve.frames import (
    BYE,
    DRAIN,
    ERROR,
    HEARTBEAT,
    READY,
    RECONFIG,
    RELEASE,
    SLOT,
    SNAPSHOT_REQUEST,
    STATE,
    PipeEnd,
    arm_transport_faults,
    inline_pair,
)
from repro.serve.http import StatusServer
from repro.serve.queues import ShardAdmission
from repro.serve.reconfig import ReconfigPlan, apply_op
from repro.serve.runtime import build_serve_kernels, make_feed
from repro.serve.snapshot import EdgeState, RunState, load_snapshot, save_snapshot
from repro.sim.kernel import (
    ShardSlotKernel,
    SlotAggregator,
    SlotOutcomes,
    offline_outcome,
)
from repro.sim.results import SimulationResult

__all__ = [
    "ShardRuntime",
    "shard_edges",
]


def shard_edges(num_edges: int, num_workers: int) -> list[tuple[int, ...]]:
    """Partition ``range(num_edges)`` into contiguous near-even shards.

    At most ``num_workers`` shards; never an empty shard (extra workers are
    simply not spawned when there are fewer edges than workers).
    """
    if num_edges < 1:
        raise ValueError(f"num_edges must be >= 1, got {num_edges}")
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    shards = min(num_workers, num_edges)
    base, extra = divmod(num_edges, shards)
    out: list[tuple[int, ...]] = []
    next_edge = 0
    for w in range(shards):
        size = base + (1 if w < extra else 0)
        out.append(tuple(range(next_edge, next_edge + size)))
        next_edge += size
    return out


def _mp_context():
    """Fork where the platform has it (fast spawns), spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# --------------------------------------------------------------------------
# Worker side
# --------------------------------------------------------------------------


def _error_frame(index: int, exc: BaseException) -> dict:
    return {
        "type": ERROR,
        "worker": index,
        "message": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
    }


def _send_quietly(end, frame: dict) -> None:
    """Send a last frame; a parent that is already gone cannot hear it."""
    try:
        end.send(frame)
    except (BrokenPipeError, OSError):
        pass


def _worker_main(index: int, conn, trace_path: str | None, *args) -> None:
    """Worker process entry point: run the shard, report, exit cleanly."""
    end = PipeEnd(conn)
    tracer: Tracer | None = None
    try:
        if trace_path is not None:
            tracer = Tracer([JsonlSink(trace_path)])
        asyncio.run(_worker_session(index, end, tracer, *args))
    except BaseException as exc:  # noqa: BLE001 - last-resort wire report
        _send_quietly(end, _error_frame(index, exc))
    finally:
        if tracer is not None:
            tracer.close()
        end.close()


async def _worker_session(index: int, end, tracer: Tracer | None, *args) -> None:
    """Run one shard to completion and tell the parent how it ended.

    The body of both worker kinds: a worker process runs it under
    ``asyncio.run``, an inline worker as a task on the parent's loop.
    """
    try:
        await _worker_async(index, end, tracer, *args)
    except Exception as exc:
        _send_quietly(end, _error_frame(index, exc))
    else:
        _send_quietly(end, {"type": BYE, "worker": index})


async def _worker_async(
    index: int,
    end,
    tracer: Tracer | None,
    config: ServeConfig,
    edges: list[int],
    start: int,
    stop: int,
    faults: FaultPlan | None,
    book: dict[int, EdgeState | None],
    heartbeat_interval: float,
    chaos: WorkerChaos | None,
    replay_from: int,
) -> None:
    """One shard's event loop: a slot loop beside a control and a heartbeat task.

    Frames from the parent enter through the link's ``listen`` callback,
    which feeds ``control``.  Every frame to the parent is sent by the task
    that builds it: each send is synchronous, so no two can interleave on
    the single-threaded loop.

    Each edge starts from its entry in the parent's per-edge ``book``
    (fresh kernels at slot 0 without one), loaded into the kernels and
    adapters this worker builds from the config.  A (re)spawned
    incarnation steps two spans before going live at ``start``, both
    through :meth:`ShardSlotKernel.step`: a silent *catch-up* brings each
    edge from its entry's slot up to ``replay_from`` (rows discarded — the
    parent already holds them, and the deterministic kernels reproduce the
    exact same state), and an *offline replay* steps ``[replay_from,
    start)`` with every row lost and reports those rows as offline
    outcomes with the real arrival counts.  Then the slot loop takes over.

    Every ``snapshot_request`` and ``reconfig`` frame is answered with one
    ``state`` frame that echoes the request's ``as_of``.
    """
    scenario, adapters, edge_kernels, _ = build_serve_kernels(
        config, tracer=tracer, faults=faults
    )
    horizon = scenario.horizon
    kernels = {e: edge_kernels[e] for e in edges}
    has_ingress = config.ingress is not None

    def _feed_of(rows: list[int]) -> ColumnFeed:
        return make_feed(config, scenario, adapters, rows, tracer=tracer)

    # Phase A — silent catch-up: the edges whose entries start at the same
    # slot step one span up to the replay point.  A ``live`` entry
    # re-steps slots whose outcomes the parent already holds (the
    # deterministic kernels reproduce them bit-exactly); an ``offline``
    # one covers a stretch the parent folded as inactive, so its rows are
    # lost: a lost row selects and records lost feedback, and draws,
    # switches and retries nothing.
    states: dict[int, dict] = {}
    starts: dict[int, list[tuple[int, bool]]] = {}
    for e in edges:
        entry = book.get(e) or EdgeState(None, None, 0)
        if entry.kernel is not None:
            kernels[e].load_state(entry.kernel)
            states[e] = entry.adapter
        starts.setdefault(entry.as_of, []).append((e, entry.mode == "offline"))
    for as_of, group in sorted(starts.items()):
        if as_of >= replay_from:
            continue
        rows, lost = zip(*group)
        part = _feed_of(rows)
        part.load_state({e: states[e] for e in rows if e in states})
        counts = part.draw(as_of, replay_from)
        if has_ingress:
            # The parent already merged these slots' request stats from
            # the dead incarnation's frames; the catch-up only has to
            # reproduce queue/stream state, never re-report.
            for t in range(as_of, replay_from):
                part.discard_slot(t)
        shed = np.repeat(np.array(lost)[:, None], counts.shape[1], axis=1)
        ShardSlotKernel([kernels[e] for e in rows]).step(as_of, counts, shed)
        states.update(part.state_dict())
    feed = _feed_of(edges)
    feed.load_state(states)
    shard = ShardSlotKernel([kernels[e] for e in edges])

    clock = (
        VirtualClock() if config.virtual_clock else WallClock(config.slot_duration)
    )
    admission = ShardAdmission(
        edges, config.queue_capacity, shed=config.backpressure == "shed", start=start
    )
    trace = tracer if tracer is not None else NULL_TRACER
    loop = asyncio.get_running_loop()
    control: asyncio.Queue = asyncio.Queue()

    stop_listening = end.listen(loop, control.put_nowait)

    def _slot_frame(record: SlotOutcomes, queue_s, serve_s) -> dict:
        frame = {
            "type": SLOT,
            "worker": index,
            "record": record,
            "queue_s": queue_s,
            "serve_s": serve_s,
        }
        if has_ingress:
            # The span's request stats, resolved slot by slot and summed
            # over the shard's edges: three arrays with a slot axis.
            frame["ingress"] = feed.resolve(record)
        return frame

    # Phase B — offline replay of the slots this worker's predecessor
    # missed: one span of the shard with every row lost, its lost rows
    # reported as offline with the real arrival counts (the restored
    # adapters are deterministic) in one frame, sent ahead of READY so the
    # parent folds them in order.  Every release in a replayed slot
    # resolves against an offline outcome, so ingress counts it as a miss.
    if replay_from < start:
        counts = feed.draw(replay_from, start)
        lost = shard.step(replay_from, counts, np.ones(counts.shape, bool))
        replayed = lost._replace(offline=lost.shed, shed=lost.offline)
        end.send(_slot_frame(replayed, [], []))

    def _queue_report() -> dict[int, dict[str, int]]:
        # The ``/healthz`` view of this shard's queues.
        keys = ("depth_events", "depth_items", "peak_events", "rejected")
        stats = admission.stats()
        return {e: dict(zip(keys, vars(s).values())) for e, s in stats.items()}

    async def _control() -> None:
        # Returns on DRAIN or after the RECONFIG checkpoint; a state
        # capture that fails raises out of it and ends the worker.
        while True:
            frame = await control.get()
            kind = frame["type"]
            if kind == RELEASE:
                await clock.release(int(frame["upto"]))
            elif kind in (SNAPSHOT_REQUEST, RECONFIG):
                # Only requested at quiescent boundaries (release capping),
                # so kernel/adapter state is settled for every shard edge.
                end.send({
                    "type": STATE,
                    "worker": index,
                    "as_of": frame["as_of"],
                    "edges": shard.state_dicts(),
                    "adapters": feed.state_dict(),
                })
                if kind == RECONFIG:
                    # The parent respawns the fleet reshaped at the barrier.
                    return
            elif kind == DRAIN:
                return

    async def _heartbeat() -> None:
        while True:
            await asyncio.sleep(heartbeat_interval)
            end.send({"type": HEARTBEAT, "worker": index, "queues": _queue_report()})

    def _feed(t: int) -> int:
        """Draw every released slot whose start time has passed, then admit.

        Every edge's columns are drawn at once, ahead of admission: routing
        reads no queue and draws no randomness.  Slot ``t`` is paced
        already.  Returns the first slot that some edge has not queued:
        every edge has queued ``t`` up to it.
        """
        last = min(clock.released, stop - 1)
        while last > t and not clock.started(last):
            last -= 1
        drawn = admission.drawn
        columns = feed.draw(drawn, last + 1) if last >= drawn else None
        return admission.feed(columns, loop.time(), trace)

    async def _slots() -> None:
        kill_slots = frozenset(chaos.kills) if chaos is not None else frozenset()
        stall_slots = dict(chaos.stalls) if chaos is not None else {}
        drop_slots = dict(chaos.drops) if chaos is not None else {}
        # A chaos slot is stepped as a span of its own, so exactly the
        # slots it names go unreported, stalled or dropped.
        chaos_slots = sorted(kill_slots | stall_slots.keys() | drop_slots.keys())
        t = start
        while t < stop:
            await clock.wait_for_slot(t)
            await clock.pace(t)
            until = min(_feed(t), stop)
            nearest = bisect.bisect_left(chaos_slots, t)
            if nearest < len(chaos_slots):
                until = min(until, max(chaos_slots[nearest], t + 1))
            counts, shed, fed_at = admission.take(until)
            began = loop.time()
            record = shard.step(t, counts, shed)
            serve_s = np.full(counts.size, (loop.time() - began) / counts.size)
            queue_s = (began - fed_at).ravel()
            slot_frame = _slot_frame(record, queue_s, serve_s)
            drop = drop_slots.get(t)
            if drop:
                arm_transport_faults(drop)
            stall = stall_slots.get(t)
            if stall:
                # Chaos: a deliberately hung worker — heartbeats stop too,
                # which is the point.
                time.sleep(stall)  # noqa: RPL012 - chaos stall by design
            if t in kill_slots:
                # Abrupt, SIGKILL-like death with this slot unreported —
                # the parent sees a raw EOF and the process sentinel.
                os._exit(1)
            if until == stop:
                # Every edge has stepped its last item: the final queue
                # stats, so health reports the drain, not a stale beat.
                slot_frame["queues"] = _queue_report()
            end.send(slot_frame)
            t = until
        if config.label_delay and stop == horizon:
            for e in edges:
                kernels[e].deliver_due(horizon)

    end.send({"type": READY, "worker": index})
    control_task = asyncio.create_task(_control(), name=f"shard{index}-control")
    slot_task = asyncio.create_task(_slots(), name=f"shard{index}-slots")
    tasks = [
        control_task,
        slot_task,
        asyncio.create_task(_heartbeat(), name=f"shard{index}-heartbeat"),
    ]
    try:
        await asyncio.wait(
            {slot_task, control_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if slot_task.done():
            slot_task.result()  # re-raises the slot loop's exception
            if stop < horizon:
                # A partial run's stop slot may coincide with a snapshot
                # boundary: the parent still needs this worker's STATE
                # frame after the last SLOT, so hold the control channel
                # open until it says DRAIN.
                await control_task
        if control_task.done():
            control_task.result()  # re-raises a failed state capture
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        stop_listening()


# --------------------------------------------------------------------------
# Parent side
# --------------------------------------------------------------------------


class _InlineProcess:
    """An inline worker: a shard task on the parent's own event loop.

    Offers the slice of the ``multiprocessing.Process`` API the supervisor
    uses, so process and inline workers share one bookkeeping path.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, session, name: str) -> None:
        self.loop = loop
        self.task = loop.create_task(session, name=name)

    def is_alive(self) -> bool:
        return not self.task.done()

    def join(self, timeout: float | None = None) -> None:
        if not self.task.done():
            self.loop.run_until_complete(asyncio.wait([self.task], timeout=timeout))

    def terminate(self) -> None:
        self.task.cancel()
        self.join()


@dataclass
class _Shard:
    """The parent's book-keeping for one worker incarnation."""

    index: int
    edges: tuple[int, ...]
    process: object
    conn: object  # the parent's frames.PipeEnd or frames.InlineEnd
    generation: int = 0
    live_from: int = 0
    ready: bool = False
    running: bool = True
    byed: bool = False
    failed: bool = False
    errored: bool = False
    error: str = ""
    restarting: bool = False
    restarted: bool = False
    recovered: bool = False
    last_slot: int = -1
    #: The ``as_of`` of the last state request this incarnation answered.
    answered: int = -1
    last_frame: float = field(default_factory=time.monotonic)


class _StatusThread(threading.Thread):
    """Runs the stdlib StatusServer on its own loop beside the sync parent."""

    def __init__(self, routes: dict, port: int) -> None:
        super().__init__(daemon=True, name="shard-status")
        self._routes = routes
        self._request_port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        # Not ``_started``: that name is Thread's own bootstrap event, set
        # as soon as the thread runs, before the server is bound.
        self._bound = threading.Event()
        self.port: int | None = None

    def run(self) -> None:  # pragma: no cover - exercised via HTTP tests
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        server = StatusServer(self._routes, port=self._request_port)
        await server.start()
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._bound.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()

    def wait_started(self, timeout: float = 10.0) -> None:
        if not self._bound.wait(timeout):
            raise RuntimeError("status server thread failed to start")

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self.join(timeout=5.0)


class ShardRuntime:
    """One serve run: the parent's trading loop over a sharded edge tier.

    Construct from a :class:`ServeConfig` or :meth:`from_snapshot`, then
    :meth:`run`.  ``config.num_workers`` decides where the edges run:
    ``0`` serves them in-process — one inline worker on the parent's own
    event loop, frames handed over by reference, the worker's events in
    the parent's tracer — and ``N >= 1`` partitions them across ``N``
    worker processes over pickled pipe frames.  Both take the same
    supervisor path, and virtual-clock runs are bit-identical to
    ``Simulator.run`` at every worker count.

    Without a ``tracer`` the runtime counts into a
    :class:`~repro.obs.tracer.NullTracer` of its own, so :meth:`metrics`
    always describes this run alone.

    ``chaos`` takes a :class:`~repro.serve.chaos.ChaosPlan` realized
    deterministically against the largest fleet the run reaches; it kills
    worker processes, so it needs ``num_workers >= 1``.  With
    ``shard_trace_base``, worker ``w`` writes its events to
    ``{base}.shard{w}``.  ``reconfig`` takes a
    :class:`~repro.serve.reconfig.ReconfigPlan` applied at slot barriers,
    at any worker count.  A snapshot records the plan, and a run resumed
    from it continues the plan.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        shard_trace_base: str | Path | None = None,
        heartbeat_interval: float = 0.5,
        stall_timeout: float = 120.0,
        start_timeout: float = 120.0,
        chaos: ChaosPlan | None = None,
        reconfig: ReconfigPlan | None = None,
    ) -> None:
        self.config = config
        self.label = config.effective_label
        self.tracer = tracer if tracer is not None else NullTracer()
        self._rebind_tracer = tracer is not None
        self._faults = faults
        # The parent builds the full kernel set too: it keeps the trading
        # kernel (Algorithm 2 + market + ledger) and reads the adapters of
        # inactive edges; the edge kernels are never stepped here and
        # untouched streams cost nothing (draws are lazy).
        self.scenario, self._adapters, _, self.trading_kernel = (
            build_serve_kernels(config, tracer=tracer, faults=faults)
        )
        #: The feed of the edges no worker serves (reconfigured out).
        self._inactive = self._feed_of(())
        self.horizon = self.scenario.horizon
        self.num_edges = self.scenario.num_edges
        self._reconfig = (
            reconfig if reconfig is not None and not reconfig.is_empty else None
        )
        self._inline = config.num_workers == 0
        if self._inline and chaos is not None and not chaos.is_empty:
            raise ValueError(
                "chaos plans kill worker processes; set num_workers >= 1"
            )
        #: The event loop inline workers run on, open for the span of a run.
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Slots between restart checkpoints (0 = none): releases stop at
        #: each boundary, and the parent requests the workers' states there.
        #: A checkpoint spares a respawned worker process from re-stepping
        #: the run so far.  An inline worker dies only by raising and takes
        #: none: copying the state in-process would cost as much as the
        #: slots themselves, so its respawn re-steps from the newest state
        #: in the book instead.
        self._restart_every = (
            config.restart_state_every
            if config.on_worker_death == "restart" and not self._inline
            else 0
        )
        if self._reconfig is not None:
            for op in self._reconfig.ops:
                if op.at >= self.horizon:
                    raise ValueError(
                        f"reconfig op at slot {op.at} is outside the "
                        f"horizon of {self.horizon}"
                    )
        # The fleet without a plan; :meth:`run` derives a plan's fleet at
        # the slot it starts from.
        self._active: tuple[int, ...] = tuple(range(self.num_edges))
        self._num_workers = max(config.num_workers, 1)
        self.shards = self._partition(self._active, self._num_workers)
        self._shard_trace_base = (
            None if shard_trace_base is None else str(shard_trace_base)
        )
        self._heartbeat_interval = heartbeat_interval
        self._stall_timeout = stall_timeout
        self._start_timeout = start_timeout
        self._chaos_plan = chaos
        self._chaos: dict[int, WorkerChaos] = {}
        self.aggregator = SlotAggregator(self.scenario, self.trading_kernel)
        self.completed_slot = -1
        self._edge_state_slot = 0  # slot the (fresh/restored) edge state is at
        self._handles: list[_Shard] = []
        #: Reported shard records awaiting their slot's fold:
        #: ``t -> {worker -> record}``.
        self._pending: dict[int, dict[int, SlotOutcomes]] = {}
        #: Each edge's model in the last slot a worker reported for it.
        self._last_models = np.full(self.num_edges, -1)
        #: Per-edge queue stats as of the owning worker's last heartbeat
        #: (or final slot): ``edge -> {depth_events, depth_items, ...}``.
        self._queue_stats: dict[int, dict[str, int]] = {}
        self._release_ts: dict[int, float] = {}
        self._released = -1
        self._stop_slot = self.horizon
        self._barriers: list[int] = []
        #: The per-edge book: each edge's last-good state.  Restart
        #: checkpoints, reconfig drains and snapshots fill it; (re)spawned
        #: workers restore from it.
        self._edge_states: dict[int, EdgeState] = {}
        self._restart_due: dict[int, float] = {}
        self._restart_backoff: dict[int, float] = {}
        self._restarts_used: dict[int, int] = {}
        self._death_ts: dict[int, float] = {}
        self._spawn_counts: dict[int, int] = {}
        self._reconfiguring = False
        self.status_thread: _StatusThread | None = None
        #: Set once :meth:`run` has its status server (when configured) up.
        self.server_ready = threading.Event()
        tracer_obj = self.tracer
        self._events_in = tracer_obj.counter("serve/events_in")
        self._events_served = tracer_obj.counter("serve/events_served")
        self._events_shed = tracer_obj.counter("serve/events_shed")
        self._events_dropped_offline = tracer_obj.counter(
            "serve/events_dropped_offline"
        )
        self._slots_completed = tracer_obj.counter("serve/slots_completed")
        self._snapshots_taken = tracer_obj.counter("serve/snapshots")
        self._heartbeats = tracer_obj.counter("serve/heartbeats")
        self._shard_deaths = tracer_obj.counter("serve/shard_deaths")
        self._restarts = tracer_obj.counter("serve/restarts")
        self._reconfigs = tracer_obj.counter("serve/reconfigs")
        self._stage_queue = tracer_obj.timer("serve/stage/queue")
        self._stage_serve = tracer_obj.timer("serve/stage/serve")
        self._stage_trade = tracer_obj.timer("serve/stage/trade")
        self._stage_slot = tracer_obj.timer("serve/stage/slot")
        self._stage_recovery = tracer_obj.timer("serve/stage/recovery")
        ingress_config = config.ingress_config()
        self.ingress = None
        #: Resolved per-slot ingress payloads awaiting their slot's fold:
        #: ``t -> {worker -> payload}``, the parent's inactive edges under
        #: worker ``-1``.  A respawn reports only slots its predecessor did
        #: not, so a slot gets one payload per worker.
        self._pending_ingress: dict[int, dict[int, tuple]] = {}
        if ingress_config is not None:
            from repro.ingress.stats import IngressStats

            self.ingress = IngressStats(ingress_config.class_names)
            self._requests_in = tracer_obj.counter("ingress/requests_in")
            self._requests_dropped = tracer_obj.counter(
                "ingress/requests_dropped"
            )
            self._requests_deferred = tracer_obj.counter(
                "ingress/requests_deferred"
            )
            self._deadline_hits = tracer_obj.counter("ingress/deadline_hits")
            self._deadline_misses = tracer_obj.counter("ingress/deadline_misses")

    def _feed_of(self, edges: Sequence[int]) -> ColumnFeed:
        return make_feed(
            self.config, self.scenario, self._adapters, edges, tracer=self.tracer
        )

    @staticmethod
    def _partition(active: Sequence[int], num_workers: int) -> list[tuple[int, ...]]:
        """Contiguous near-even shards over the *active* edge ids."""
        return [
            tuple(active[i] for i in part)
            for part in shard_edges(len(active), num_workers)
        ]

    # -- construction / restore -------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        **kwargs,
    ) -> "ShardRuntime":
        """Rebuild a runtime mid-horizon from a persisted snapshot.

        Snapshots are worker-agnostic: the file's config decides the
        worker count the resumed run starts with, whatever count wrote it,
        as changed by the plan's ``rebalance`` ops up to the file's slot;
        the plan goes on from there.
        """
        return cls.from_state(
            load_snapshot(path), tracer=tracer, faults=faults, **kwargs
        )

    @classmethod
    def from_state(
        cls,
        state: RunState,
        *,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        **kwargs,
    ) -> "ShardRuntime":
        """Rebuild a runtime from a record :func:`load_snapshot` read."""
        if "reconfig" in kwargs:
            raise ValueError(
                "a resumed run continues the reconfig plan its snapshot "
                "carries; pass no reconfig="
            )
        reconfig = state.reconfig
        plan = None if reconfig is None else ReconfigPlan.from_dict(reconfig)
        config = ServeConfig.from_dict(state.config)
        runtime = cls(config, tracer=tracer, faults=faults, reconfig=plan, **kwargs)
        runtime._restore(state)
        return runtime

    def _run_state(self, next_slot: int) -> RunState:
        """This run as one record, at the quiescent boundary ``next_slot``."""
        counters = self.tracer.metrics_snapshot()["counters"]
        return RunState(
            label=self.label,
            config=self.config.to_dict(),
            next_slot=next_slot,
            trading=self.trading_kernel.state_dict(),
            arrays=self.aggregator.partial_arrays(next_slot),
            edges=dict(self._edge_states),
            parent_adapters=self._inactive.state_dict(),
            ingress=self.ingress,
            counters={
                name: value
                for name, value in counters.items()
                if name.startswith(("serve/", "ingress/"))
            },
            reconfig=None if self._reconfig is None else self._reconfig.to_dict(),
        )

    def _restore(self, state: RunState) -> None:
        if state.label != self.label:
            raise ValueError(
                f"snapshot is for run {state.label!r}, "
                f"this runtime serves {self.label!r}"
            )
        next_slot = int(state.next_slot)
        if not 0 <= next_slot <= self.horizon:
            raise ValueError(
                f"snapshot resumes at slot {next_slot}, "
                f"horizon is {self.horizon}"
            )
        self.trading_kernel.load_state(state.trading)
        if self._rebind_tracer:
            self.trading_kernel.policy.bind_tracer(self.tracer)
            self.trading_kernel.market.bind_tracer(self.tracer)
            self.trading_kernel.ledger.bind_tracer(self.tracer)
        self.aggregator.load_arrays(state.arrays)
        self.completed_slot = next_slot - 1
        self._edge_state_slot = next_slot
        # Workers rebuild their shard and restore it from the book.
        self._edge_states = dict(state.edges)
        self._inactive = self._feed_of(sorted(state.parent_adapters))
        self._inactive.load_state(state.parent_adapters)
        if state.ingress is not None:
            self.ingress = state.ingress
        for name, value in state.counters.items():
            self.tracer.counter(name).increment(value)
        if next_slot > 0:
            self._last_models[:] = state.arrays["selections"][-1]

    # -- public surface ----------------------------------------------------

    def health(self) -> dict[str, object]:
        """Liveness payload for ``GET /healthz``.

        Slot progress, per-worker status, and per-edge queue backpressure
        (depth, peak and rejected puts) as each worker last reported it: on
        its heartbeats while running and on its final slot.  An edge whose
        worker has not reported yet has no ``queues`` row.
        """
        done = self.completed_slot >= self.horizon - 1
        degraded = any(h.failed for h in self._handles)
        healing = bool(self._restart_due) or any(
            h.restarting for h in self._handles
        )
        status = "done" if done else (
            "degraded" if degraded else ("healing" if healing else "serving")
        )
        return {
            "status": status,
            "label": self.label,
            "completed_slot": self.completed_slot,
            "released_slot": self._released,
            "horizon": self.horizon,
            "num_edges": self.num_edges,
            "active_edges": len(self._active),
            "num_workers": len(self.shards),
            "shards": [
                {
                    "worker": h.index,
                    "edges": list(h.edges),
                    "alive": h.running,
                    "failed": h.failed,
                    "restarting": h.restarting,
                    "generation": h.generation,
                    "last_slot": h.last_slot,
                }
                for h in self._handles
            ],
            "queues": [
                {"edge": e, **stats}
                for e, stats in sorted(self._queue_stats.items())
            ],
        }

    def metrics(self) -> dict[str, object]:
        """Tracer counters/timers and event tallies for ``GET /metrics``."""
        payload: dict[str, object] = dict(self.tracer.metrics_snapshot())
        payload["events"] = self.tracer.event_counts()
        return payload

    def result(self) -> SimulationResult:
        """The completed run's records (requires the full horizon served)."""
        if self.completed_slot < self.horizon - 1:
            raise RuntimeError(
                f"run stopped after slot {self.completed_slot}; "
                f"horizon is {self.horizon} — resume it before asking for results"
            )
        return self.aggregator.result(self.label)

    def run(self, *, max_slots: int | None = None) -> SimulationResult | None:
        """Serve the horizon (or ``max_slots`` of it) across the shards.

        Returns the :class:`SimulationResult` when the horizon completed,
        ``None`` after a partial run (resume from the last snapshot via
        :meth:`from_snapshot` — the edge state of a partial run leaves with
        its workers and lives on only in the snapshot file).
        """
        start = self.completed_slot + 1
        stop = self.horizon
        if max_slots is not None:
            if max_slots < 1:
                raise ValueError(f"max_slots must be >= 1, got {max_slots}")
            stop = min(stop, start + max_slots)
        if start >= stop:
            return self.result() if stop == self.horizon else None
        if start != self._edge_state_slot:
            raise RuntimeError(
                f"edge state is at slot {self._edge_state_slot} but the run "
                f"would start at {start}; sharded runs continue from their "
                "snapshot file (ShardRuntime.from_snapshot)"
            )
        if self._reconfig is not None:
            self._active, self._num_workers = self._reconfig.fleet_at(
                capacity=self.num_edges,
                num_workers=self._num_workers,
                upto_slot=start,
            )
            self.shards = self._partition(self._active, self._num_workers)
            # A barrier at the stop slot still applies, so that a snapshot
            # there records the fleet after its ops.
            self._barriers = [
                b for b in self._reconfig.barriers() if start < b <= stop
            ]
            if start == 0:
                # A resumed run's record already holds the effects of every
                # op up to its slot: the offline book entries, the parent's
                # adapters and the rescaled trading state.
                self._pin_inactive_offline(0)
                if len(self._active) != self.num_edges:
                    self.trading_kernel.rescale_fleet(
                        len(self._active) / self.num_edges
                    )
        # Chaos targets every worker index the run will have: up to the
        # largest fleet its reconfig barriers reach.
        num_shards = len(self.shards)
        for barrier in self._barriers:
            active, workers = self._reconfig.fleet_at(
                capacity=self.num_edges,
                num_workers=max(self.config.num_workers, 1),
                upto_slot=barrier,
            )
            num_shards = max(num_shards, len(self._partition(active, workers)))
        self._chaos = realize(
            self._chaos_plan,
            num_workers=num_shards,
            horizon=self.horizon,
            seed=self.config.seed,
        )
        self._stop_slot = stop
        self._released = start - 1
        if self._inline:
            self._loop = asyncio.new_event_loop()
        handles = self._handles = self._spawn_fleet(start)
        if self.config.health_port is not None:
            self.status_thread = _StatusThread(
                {"/healthz": self.health, "/metrics": self.metrics},
                port=self.config.health_port,
            )
            self.status_thread.start()
            self.status_thread.wait_started()
        self.server_ready.set()
        try:
            self._await_ready(handles)
            self._release_through(self._release_target_for(start - 1))
            while self.completed_slot < stop - 1:
                self._poll(self._handles, timeout=0.2)
                self._service_restarts()
                self._fold_ready()
                self._check_stalls(self._handles)
        finally:
            self._shutdown(self._handles)
            if self._loop is not None:
                self._loop.close()
                self._loop = None
            if self.status_thread is not None:
                self.status_thread.stop()
        # A partial run's edge state exited with the workers; only a
        # snapshot file can continue it.
        self._edge_state_slot = -1 if stop < self.horizon else stop
        return self.result() if stop == self.horizon else None

    # -- process management ------------------------------------------------

    def _spawn_worker(
        self,
        w: int,
        edges: Sequence[int],
        *,
        start: int,
        replay_from: int,
        generation: int = 0,
    ) -> _Shard:
        """Start one worker for ``[start, stop slot)`` and return its handle."""
        book = {e: self._edge_states.get(e) for e in edges}
        if self._inline:
            # Kernels adopt the arrays and lists they restore from: each
            # incarnation gets its own copy, as a forked process would.
            book = copy.deepcopy(book)
        args = (
            self.config,
            list(edges),
            start,
            self._stop_slot,
            self._faults,
            book,
            self._heartbeat_interval,
            self._chaos.get(w),
            replay_from,
        )
        if self._inline:
            assert self._loop is not None
            parent_end, worker_end = inline_pair()
            tracer = self.tracer if self._rebind_tracer else None
            process = _InlineProcess(
                self._loop,
                _worker_session(w, worker_end, tracer, *args),
                name=f"repro-shard-{w}",
            )
        else:
            ctx = _mp_context()
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(w, child_conn, self._trace_path_for(w), *args),
                daemon=True,
                name=f"repro-shard-{w}",
            )
            process.start()
            # Close the child's end in the parent so a dead worker turns
            # into EOF here instead of a silent hang.
            child_conn.close()
            parent_end = PipeEnd(parent_conn)
        handle = _Shard(
            index=w,
            edges=tuple(edges),
            process=process,
            conn=parent_end,
            generation=generation,
            live_from=start,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                WorkerSpawnEvent(
                    t=start, worker=w, num_edges=len(edges), generation=generation
                )
            )
        return handle

    def _spawn_fleet(self, start: int) -> list[_Shard]:
        """A fresh worker per shard, each live from ``start``."""
        return [
            self._spawn_worker(w, edges, start=start, replay_from=start)
            for w, edges in enumerate(self.shards)
        ]

    def _trace_path_for(self, w: int) -> str | None:
        """Worker ``w``'s JSONL trace target, ``{base}.shard{w}``, for any ``w``.

        :class:`~repro.obs.sinks.JsonlSink` truncates on open, so a
        respawned incarnation (a restart, or a reconfig barrier's new
        fleet) writes ``{base}.shard{w}.respawnN`` instead.
        """
        if self._shard_trace_base is None:
            return None
        count = self._spawn_counts.get(w, 0)
        self._spawn_counts[w] = count + 1
        path = f"{self._shard_trace_base}.shard{w}"
        return path if count == 0 else f"{path}.respawn{count}"

    def _await_ready(self, handles: list[_Shard]) -> None:
        deadline = time.monotonic() + self._start_timeout
        while any(h.running and not h.ready for h in handles):
            if time.monotonic() > deadline:
                missing = [h.index for h in handles if not h.ready]
                raise RuntimeError(
                    f"timed out waiting for shard workers {missing} to start"
                )
            self._poll(handles, timeout=0.1)

    def _poll(self, handles: list[_Shard], *, timeout: float) -> None:
        """Dispatch worker frames and exits, waiting up to ``timeout``."""
        if self._inline:
            self._poll_inline(handles, timeout=timeout)
            return
        # Pipe reads and process-death sentinels multiplexed in one wait.
        conn_map = {h.conn.waitable: h for h in handles if h.running}
        sentinel_map = {h.process.sentinel: h for h in handles if h.running}
        waitables = list(conn_map) + list(sentinel_map)
        if not waitables:
            return
        ready = multiprocessing.connection.wait(waitables, timeout)
        for obj in ready:
            handle = conn_map.get(obj)
            if handle is not None:
                try:
                    while handle.conn.poll():
                        self._dispatch(handle, handle.conn.recv())
                except (EOFError, OSError):
                    self._handle_exit(handle)
            else:
                handle = sentinel_map[obj]
                for frame in handle.conn.drain():
                    self._dispatch(handle, frame)
                self._handle_exit(handle)

    def _poll_inline(self, handles: list[_Shard], *, timeout: float) -> None:
        """Run the inline workers' loop until one sends a frame or exits."""
        live = [h for h in handles if h.running]
        if not live:
            return
        if not any(h.conn.poll() for h in live):
            loop = self._loop
            assert loop is not None
            woken = loop.create_future()

            def wake() -> None:
                if not woken.done():
                    woken.set_result(None)

            for handle in live:
                handle.conn.on_frame = wake
            try:
                loop.run_until_complete(
                    asyncio.wait(
                        [woken, *(h.process.task for h in live)],
                        timeout=timeout,
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                )
            finally:
                woken.cancel()
                for handle in live:
                    handle.conn.on_frame = None
        for handle in live:
            for frame in handle.conn.drain():
                self._dispatch(handle, frame)
            if not handle.process.is_alive():
                self._handle_exit(handle)

    def _dispatch(self, handle: _Shard, frame: dict) -> None:
        handle.last_frame = time.monotonic()
        kind = frame["type"]
        if kind == SLOT:
            record = frame["record"]
            # Split into slots, each folded once every worker reported it;
            # a respawn reports only slots its predecessor did not.
            for part in record.split():
                self._pending.setdefault(part.t, {})[handle.index] = part
            last = record.t + record.num_slots - 1
            self._last_models[record.edge] = record.model[:, -1]
            if "queues" in frame:
                self._queue_stats.update(frame["queues"])
            if "ingress" in frame:
                # Stored, not merged: a slot's payloads merge at its fold.
                totals, per_class, waits = frame["ingress"]
                for j in range(record.num_slots):
                    self._pending_ingress.setdefault(record.t + j, {})[
                        handle.index
                    ] = (totals[j], per_class[j], waits[j])
            handle.last_slot = max(handle.last_slot, last)
            if (
                handle.restarted
                and not handle.recovered
                and last >= handle.live_from
            ):
                handle.recovered = True
                died = self._death_ts.pop(handle.index, None)
                if died is not None:
                    self._stage_recovery.add(time.monotonic() - died)
            self._stage_queue.observe(frame["queue_s"])
            self._stage_serve.observe(frame["serve_s"])
        elif kind == READY:
            handle.ready = True
        elif kind == HEARTBEAT:
            self._heartbeats.increment()
            self._queue_stats.update(frame["queues"])
        elif kind == STATE:
            # Every answer enters the book as its edges' last-good state.
            as_of = int(frame["as_of"])
            for e, kernel_state in frame["edges"].items():
                self._edge_states[e] = EdgeState(
                    kernel_state, frame["adapters"][e], as_of
                )
            handle.answered = as_of
        elif kind == BYE:
            handle.byed = True
        elif kind == ERROR:
            handle.error = str(frame["message"])
            handle.errored = True
            if self.config.on_worker_death == "fail":
                trail = frame.get("traceback", "")
                raise RuntimeError(
                    f"shard worker {handle.index} failed: "
                    f"{frame['message']}\n{trail}"
                )

    def _handle_exit(self, handle: _Shard) -> None:
        if not handle.running:
            return
        handle.running = False
        finished = handle.last_slot >= self._stop_slot - 1
        clean = finished or (handle.byed and not handle.errored)
        if clean:
            return
        self._on_death(handle)

    def _on_death(self, handle: _Shard) -> None:
        """Route a worker death through the configured policy."""
        self._shard_deaths.increment()
        policy = self.config.on_worker_death
        if self.tracer.enabled:
            self.tracer.emit(
                WorkerDeathEvent(
                    t=self.completed_slot + 1,
                    worker=handle.index,
                    policy=policy,
                    message=handle.error,
                )
            )
        if policy == "fail":
            detail = f": {handle.error}" if handle.error else ""
            raise RuntimeError(
                f"shard worker {handle.index} (edges {list(handle.edges)}) "
                f"died at slot {self.completed_slot + 1}{detail}; set "
                "on_worker_death='degrade' or 'restart' to complete without it"
            )
        if self._reconfiguring:
            # The barrier respawn below supersedes any healing: the dead
            # worker's edges fall back to their last checkpoint and catch
            # up over the already-folded slots.
            return
        if policy == "restart":
            used = self._restarts_used.get(handle.index, 0)
            if used < self.config.max_restarts:
                backoff = min(
                    self.config.restart_backoff_s * (2.0**used),
                    self.config.restart_backoff_max_s,
                )
                handle.restarting = True
                now = time.monotonic()
                self._death_ts[handle.index] = now
                self._restart_due[handle.index] = now + backoff
                self._restart_backoff[handle.index] = backoff
                return
        # Degrade (or a restart budget exhausted): synthesized offline
        # outcomes stand in for this shard for every remaining slot.
        handle.failed = True

    def _service_restarts(self) -> None:
        """Respawn every worker whose backoff ticket has come due."""
        if not self._restart_due:
            return
        now = time.monotonic()
        for w in [w for w, due in self._restart_due.items() if due <= now]:
            del self._restart_due[w]
            self._respawn(w)

    def _respawn(self, w: int) -> None:
        """Respawn worker ``w`` from its last-good state at the frontier.

        Every slot up to the fold or the dead incarnation's last report,
        whichever is later, was folded or sits in ``_pending``; the new
        incarnation catches up over them silently, so no reported outcome
        is overwritten.  It replays the rest up to the release frontier,
        ``[replay_from, released + 1)``, as offline outcomes and goes live
        right after the frontier, so the fold never double-counts a slot.
        Book entries are requested only for folded boundaries, so none is
        past ``replay_from``.
        """
        old = self._handles[w]
        used = self._restarts_used.get(w, 0) + 1
        self._restarts_used[w] = used
        backoff = self._restart_backoff.pop(w, 0.0)
        old.conn.close()
        replay_from = max(self.completed_slot, old.last_slot) + 1
        start = self._released + 1
        handle = self._spawn_worker(
            w,
            old.edges,
            start=start,
            replay_from=replay_from,
            generation=old.generation + 1,
        )
        handle.restarted = True
        self._handles[w] = handle
        self._restarts.increment()
        if self.tracer.enabled:
            self.tracer.emit(
                WorkerRestartEvent(
                    t=start,
                    worker=w,
                    replay_from=replay_from,
                    attempt=used,
                    backoff_s=backoff,
                )
            )
        # Hand the new incarnation the current release frontier: the
        # parent only broadcasts releases when the target advances, which
        # it might never do again near the end of the horizon.
        if self._released >= 0:
            self._broadcast({"type": RELEASE, "upto": self._released}, [handle])

    def _check_stalls(self, handles: list[_Shard]) -> None:
        now = time.monotonic()
        for handle in handles:
            if not handle.running or handle.last_slot >= self._stop_slot - 1:
                continue
            if now - handle.last_frame > self._stall_timeout:
                handle.running = False
                handle.process.terminate()
                self._on_death(handle)

    def _shutdown(self, handles: list[_Shard]) -> None:
        self._broadcast({"type": DRAIN}, handles)
        self._join_all(handles)

    @staticmethod
    def _broadcast(frame: dict, handles: list[_Shard]) -> None:
        """Send ``frame`` to every running worker in ``handles``.

        A send to a worker that just died is dropped: its death surfaces
        through its sentinel (or task) on the next poll.
        """
        for handle in handles:
            if handle.running:
                try:
                    handle.conn.send(frame)
                except (BrokenPipeError, OSError):
                    pass

    def _request_states(self, frame: dict, *, abort_on_death: bool = False) -> bool:
        """Broadcast the state request ``frame``; wait for every running worker.

        A worker is answered once its STATE frame for the request's
        ``as_of`` is in: :meth:`_dispatch` adopts each answer into the book
        as it arrives.  With ``abort_on_death``, a worker death while
        waiting returns ``False`` instead of waiting on; the answers that
        did arrive stay in the book, each a quiescent state as of the
        folded boundary ``as_of``.
        """
        as_of = frame["as_of"]
        handles = self._handles
        self._broadcast(frame, handles)
        deadline = time.monotonic() + self._stall_timeout
        while True:
            waiting = [h.index for h in handles if h.running and h.answered != as_of]
            if not waiting:
                return True
            if abort_on_death and any(h.failed or h.restarting for h in handles):
                return False
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"timed out waiting for shard workers {waiting} to answer "
                    f"{frame['type']!r} with their state"
                )
            self._poll(handles, timeout=0.1)

    def _pin_inactive_offline(self, at: int) -> None:
        """Mark every inactive edge's stretch from ``at`` as parent-folded.

        The parent's feed takes over an edge's arrivals from its
        checkpoint, copied: adapters adopt the arrays they restore, and
        the entry goes back to a worker if the edge is re-added.  Edges
        that stay inactive carry on from where the parent's feed was.
        """
        states = self._inactive.state_dict()
        inactive = [e for e in range(self.num_edges) if e not in self._active]
        for e in inactive:
            entry = self._edge_states.get(e, EdgeState(None, None, at, "offline"))
            if entry.mode == "live":
                states[e] = copy.deepcopy(entry.adapter)
            self._edge_states[e] = replace(entry, mode="offline")
        self._inactive = self._feed_of(inactive)
        self._inactive.load_state({e: states[e] for e in inactive if e in states})

    def _join_all(self, handles: list[_Shard]) -> None:
        deadline = time.monotonic() + 10.0
        for handle in handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.running = False
            handle.conn.close()

    # -- live reconfiguration ----------------------------------------------

    def _apply_reconfig(self, barrier: int) -> None:
        """Drain, reshape, and respawn the fleet at a quiescent barrier.

        Every slot below ``barrier`` is folded and releases were capped at
        ``barrier - 1``, so each worker's kernels are settled at state
        ``barrier``: the drain checkpoint is exact, and a worker that dies
        mid-drain falls back to its last restart checkpoint (the slots in
        between were folded from real outcomes, which the deterministic
        catch-up re-steps bit-exactly).
        """
        assert self._reconfig is not None
        handles = self._handles
        # The full respawn below supersedes any pending restart tickets.
        self._restart_due.clear()
        self._restart_backoff.clear()
        self._death_ts.clear()
        self._reconfiguring = True
        try:
            self._request_states({"type": RECONFIG, "as_of": barrier})
            self._join_all(handles)
        finally:
            self._reconfiguring = False
        active = set(self._active)
        workers = self._num_workers
        old_count = len(active)
        for op in self._reconfig.ops_at(barrier):
            active, workers = apply_op(op, active, workers, self.num_edges)
            self._reconfigs.increment()
            if self.tracer.enabled:
                self.tracer.emit(
                    ReconfigAppliedEvent(
                        t=barrier,
                        op=op.kind,
                        edge=getattr(op, "edge", -1),
                        active_edges=len(active),
                        num_workers=workers,
                    )
                )
        self._active = tuple(sorted(active))
        self._num_workers = workers
        self._queue_stats = {
            e: stats for e, stats in self._queue_stats.items() if e in active
        }
        self._pin_inactive_offline(barrier)
        if len(active) != old_count:
            # Deterministic dual-state and trade-bound rescale; a factor
            # of 1.0 short-circuits, keeping no-op plans bit-exact.
            self.trading_kernel.rescale_fleet(len(active) / old_count)
        self.shards = self._partition(self._active, workers)
        self._handles[:] = self._spawn_fleet(barrier)
        self._await_ready(self._handles)

    # -- the slot fold -----------------------------------------------------

    def _release_target_for(self, completed: int) -> int:
        return release_target(
            completed,
            horizon=self.horizon,
            lockstep=self.config.virtual_clock,
            pipeline_depth=self.config.pipeline_depth,
            snapshot_every=self.config.snapshot_every,
            restart_state_every=self._restart_every,
            barrier=next((b for b in self._barriers if b > completed), None),
        )

    def _release_through(self, target: int) -> None:
        if target <= self._released:
            return
        now = time.monotonic()
        tracer = self.tracer
        for t in range(self._released + 1, target + 1):
            self._release_ts[t] = now
            if tracer.enabled:
                tracer.emit(SlotStartEvent(t=t, horizon=self.horizon))
        self._broadcast({"type": RELEASE, "upto": target}, self._handles)
        self._released = target

    def _slot_record(self, t: int) -> SlotOutcomes:
        """Slot ``t``'s record over the whole fleet, rows in edge order.

        The reported shard records plus an offline row for each edge no
        worker reported.  A degraded edge offers nothing; an inactive
        (reconfigured-out) edge offers the arrivals of its adapter here,
        and with ingress their requests resolve against its offline row.
        """
        bucket = self._pending.pop(t, {})
        parts = [bucket[h.index] for h in self._handles if h.index in bucket]
        reported = {e for part in parts for e in part.edge.tolist()}
        inactive = self._inactive
        offered = {}
        if inactive.edges:
            offered = dict(zip(inactive.edges, inactive.next_item(t).tolist()))
            if self.ingress is not None:
                rows = len(inactive.edges)
                self._pending_ingress.setdefault(t, {})[-1] = inactive.resolve_slot(
                    t, shed=np.zeros(rows, bool), offline=np.ones(rows, bool)
                )
        rows = [
            offline_outcome(t, e, self._last_models[e], arrivals=offered.get(e, 0))
            for e in range(self.num_edges)
            if e not in reported
        ]
        if rows:
            parts.append(SlotOutcomes.from_rows(rows))
        return SlotOutcomes.merge(parts)

    def _fold_ready(self) -> None:
        """Fold every slot whose shard records are in (or never coming)."""
        while self.completed_slot < self._stop_slot - 1:
            t = self.completed_slot + 1
            # A live (or restarting — its replacement will replay) worker
            # still owes its record; a degraded one's edges get offline rows.
            bucket = self._pending.get(t, {})
            if not all(h.index in bucket or h.failed for h in self._handles):
                return
            record = self._slot_record(t)
            arrivals = record.arrivals
            self._events_in.increment(int(arrivals.sum()))
            self._events_dropped_offline.increment(int(arrivals[record.offline].sum()))
            self._events_shed.increment(int(arrivals[record.shed].sum()))
            self._events_served.increment(int(record.served.sum()))
            if self.ingress is not None:
                self._merge_ingress(t)
            fold_start = time.monotonic()
            self.aggregator.fold(t, record)
            folded = time.monotonic()
            self._stage_trade.add(folded - fold_start)
            released_at = self._release_ts.pop(t, None)
            if released_at is not None:
                self._stage_slot.add(folded - released_at)
            self.completed_slot = t
            self._slots_completed.increment()
            self._request_boundary_states(t + 1)
            self._release_through(self._release_target_for(t))

    def _request_boundary_states(self, boundary: int) -> None:
        """Ask for the workers' states at ``boundary`` where the run needs them.

        Releases stop at each of these boundaries, so every worker is
        quiescent there.  A reconfig barrier drains the fleet, and a
        snapshot, taken after the barrier at its slot, waits for every
        answer.  A restart boundary only broadcasts its request and folds
        on, and sends none where a barrier or a snapshot already asked:
        the answers land in the book as they arrive.
        """
        requested = bool(self._barriers) and self._barriers[0] == boundary
        if requested:
            self._apply_reconfig(self._barriers.pop(0))
        every = self.config.snapshot_every
        if every and boundary % every == 0 and boundary < self.horizon:
            requested = self._take_snapshot(boundary - 1) or requested
        every = self._restart_every
        if not requested and every and boundary % every == 0:
            if boundary < self._stop_slot:
                request = {"type": SNAPSHOT_REQUEST, "as_of": boundary}
                self._broadcast(request, self._handles)

    def _merge_ingress(self, t: int) -> None:
        """Fold slot ``t``'s resolved request stats into the run accounting.

        Runs exactly once per folded slot, one payload per worker.  The
        inactive edges' payload comes from the parent's own feed
        (:meth:`_slot_record`), so the requests its router still holds miss
        their deadlines rather than vanish.  A degraded edge's offline rows
        carry no payload and need none: its requests were never generated,
        so ``requests_in`` never saw them and the accounting identity is
        waived while any worker is degraded (mirrors the ``total_events``
        leg of the soak gate).
        """
        assert self.ingress is not None
        for payload in self._pending_ingress.pop(t, {}).values():
            self.ingress.absorb(payload)
            requests_in, dropped, _, deferred, hits, misses = payload[0].tolist()
            self._requests_in.increment(requests_in)
            self._requests_dropped.increment(dropped)
            self._requests_deferred.increment(deferred)
            self._deadline_hits.increment(hits)
            self._deadline_misses.increment(misses)

    def _take_snapshot(self, t: int) -> bool:
        """Checkpoint the workers at the quiescent boundary, persist the run.

        Returns whether it requested the workers' states.  Degraded runs
        are not resumable — once any shard is dead, snapshots are skipped
        (the run still completes under ``degrade``).  Boundaries that race
        a pending or in-flight restart are skipped too: a replaying
        incarnation's kernels are not at the boundary state.
        """
        if self._restart_due or any(
            h.failed or h.restarting for h in self._handles
        ):
            return False
        if any(h.live_from > t + 1 for h in self._handles):
            return False  # a respawned worker is still past-due
        if not self._request_states(
            {"type": SNAPSHOT_REQUEST, "as_of": t + 1}, abort_on_death=True
        ):
            return True  # a death raced the snapshot; skip persisting
        missing = [
            e
            for e in self._active
            if e not in self._edge_states or self._edge_states[e].as_of != t + 1
        ]
        if missing:
            # Never persist a torn snapshot — resuming one would silently
            # corrupt the run.
            raise RuntimeError(
                f"snapshot at slot {t + 1} is missing state for edges "
                f"{missing}; a worker exited before answering"
            )
        path = self.config.snapshot_path
        assert path is not None  # enforced by ServeConfig validation
        # Counted first: the record covers the run up to its own boundary.
        self._snapshots_taken.increment()
        save_snapshot(path, self._run_state(t + 1))
        if self.tracer.enabled:
            self.tracer.emit(SnapshotEvent(t=t, path=str(path)))
        return True
