"""Length-prefixed pickle frames between the shard parent and its workers.

The wire protocol of :mod:`repro.serve.shard`.  A frame is a plain dict
with a ``"type"`` key, pickled and written with
``multiprocessing.Connection.send_bytes`` — the OS pipe carries a 4-byte
length header before each payload, so frames are explicitly
length-prefixed and a dead peer surfaces as ``EOFError`` on the next read
rather than a torn message.

Frame vocabulary (all carry ``"worker"`` where a sender index matters):

=====================  ======  ==================================================
type                   dir     payload
=====================  ======  ==================================================
``ready``              w -> p  worker built its kernels and entered its loop
``release``            p -> w  ``upto``: run slots through this index
``slot``               w -> p  ``record``: the shard's span
                               :class:`~repro.sim.kernel.SlotOutcomes`
                               (slots ``record.t`` on, rows in edge order),
                               as its shard step wrote it; ``queue_s`` the
                               feed-to-step latency and ``serve_s`` the
                               step's wall time over the span's edge-slots,
                               one value per edge-slot (edge-major), in
                               seconds; ``ingress`` the span's request
                               stats, resolved from the record's
                               ``shed``/``offline`` columns and summed over
                               the shard's edges (three arrays with a slot
                               axis), when ingress is on; the run's last
                               span also carries ``queues``
``heartbeat``          w -> p  liveness proof while slots are long;
                               ``queues``: per-edge queue depth in events
                               and items, peak and rejected count
``snapshot_request``   p -> w  capture kernel/adapter state at the (quiescent)
                               boundary
``state``              w -> p  ``edges``/``adapters``: per-edge state dicts
                               as plain data (arrays, numbers and
                               bit-generator states, no policy or
                               ``Generator`` objects)
``restart_state``      w -> p  ``next_slot``, ``edges``/``adapters``: a
                               restart checkpoint captured at a quiescent
                               restart boundary (``restart_state_every``),
                               plain data as in ``state``
``reconfig``           p -> w  ``barrier``: capture state, answer with
                               ``state`` then ``bye``, and exit — the fleet
                               is being repartitioned at this slot
``drain``              p -> w  finish sending, then exit cleanly
``bye``                w -> p  clean exit imminent; EOF after this is not a death
``error``              w -> p  ``message``/``traceback``: a task crashed
=====================  ======  ==================================================

Frames deliberately carry picklable simulator objects (slot records,
state dicts) rather than JSON projections: the parent folds the *same*
columns an in-process run would, which is what keeps sharded
virtual-clock runs bit-identical to ``Simulator.run``.  State dicts hold
data only, which the receiving side loads into kernels it built from the
config: unpickling a ``Generator`` would seed a fresh bit generator from
OS entropy only to overwrite its state.  A record pickles
one numpy array per outcome field, not one object per edge; the inline
link passes it by reference, and nothing writes a record once it is sent.

Two transports carry the frames behind one interface (``send``, ``poll``,
``recv``, ``drain``, ``listen``, ``close``): :class:`PipeEnd` pickles them
over a ``multiprocessing`` pipe to a worker process (its ``waitable`` joins
the parent's ``multiprocessing.connection.wait``), and :func:`inline_pair`
hands them over by reference to a worker running on the parent's own event
loop — the in-process serve mode.  An inline link deep-copies the frames
that carry kernel state, which gives the receiver the same isolation from
the sender's live objects that a pickle round trip does.

Transient transport errors (``EINTR``-style interrupted syscalls,
momentary ``EAGAIN``) are retried in place with capped exponential
backoff rather than surfacing as a worker death — only a genuine
``EOFError``/``BrokenPipeError`` (the peer is gone) propagates.  The
chaos harness injects exactly these transient errors through
:func:`arm_transport_faults` to exercise the retry path end to end.
"""

from __future__ import annotations

import asyncio
import copy
import errno
import pickle
import time
from collections import deque
from multiprocessing.connection import Connection
from typing import Callable, Iterator

__all__ = [
    "BYE",
    "DRAIN",
    "ERROR",
    "FRAME_TYPES",
    "HEARTBEAT",
    "InlineEnd",
    "PipeEnd",
    "READY",
    "RECONFIG",
    "RELEASE",
    "RESTART_STATE",
    "SLOT",
    "SNAPSHOT_REQUEST",
    "STATE",
    "TRANSPORT_RETRIES",
    "arm_transport_faults",
    "drain_frames",
    "inline_pair",
    "recv_frame",
    "send_frame",
]

READY = "ready"
RELEASE = "release"
SLOT = "slot"
HEARTBEAT = "heartbeat"
SNAPSHOT_REQUEST = "snapshot_request"
STATE = "state"
RESTART_STATE = "restart_state"
RECONFIG = "reconfig"
DRAIN = "drain"
BYE = "bye"
ERROR = "error"

#: Every frame type either side may legally send.
FRAME_TYPES = (
    READY,
    RELEASE,
    SLOT,
    HEARTBEAT,
    SNAPSHOT_REQUEST,
    STATE,
    RESTART_STATE,
    RECONFIG,
    DRAIN,
    BYE,
    ERROR,
)

#: Retries for a transient transport error before it propagates.
TRANSPORT_RETRIES = 5

#: First retry pause in seconds; doubles per attempt (2ms, 4ms, 8ms, ...).
TRANSPORT_BACKOFF_S = 0.002

#: Errnos that mean "interrupted / try again", not "peer is gone".
_TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.EWOULDBLOCK})

#: Remaining injected transient faults (chaos harness); module-local to the
#: process that armed it, so a worker's injection never leaks to the parent.
_fault_budget = 0


def arm_transport_faults(count: int) -> None:
    """Make the next ``count`` frame sends/receives in this process fail
    once each with ``InterruptedError`` before succeeding on retry."""
    global _fault_budget
    _fault_budget = int(count)


def _maybe_inject_fault() -> None:
    global _fault_budget
    if _fault_budget > 0:
        _fault_budget -= 1
        raise InterruptedError(errno.EINTR, "injected transient transport fault")


def _transient(exc: OSError) -> bool:
    if isinstance(exc, (InterruptedError, BlockingIOError)):
        return True
    return exc.errno in _TRANSIENT_ERRNOS


def _retry_pause(attempt: int) -> None:
    time.sleep(TRANSPORT_BACKOFF_S * (2**attempt))


def send_frame(conn: Connection, frame: dict) -> None:
    """Pickle ``frame`` and write it as one length-prefixed message.

    Transient transport errors are retried ``TRANSPORT_RETRIES`` times
    with exponential backoff; a dead peer (``BrokenPipeError``) is not
    transient and propagates immediately.
    """
    if frame.get("type") not in FRAME_TYPES:
        raise ValueError(
            f"frame type {frame.get('type')!r} is not one of {FRAME_TYPES}"
        )
    payload = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    for attempt in range(TRANSPORT_RETRIES + 1):
        try:
            _maybe_inject_fault()
            conn.send_bytes(payload)
            return
        except BrokenPipeError:
            raise
        except OSError as exc:
            if not _transient(exc) or attempt == TRANSPORT_RETRIES:
                raise
            _retry_pause(attempt)


def recv_frame(conn: Connection) -> dict:
    """Read one frame; raises ``EOFError`` when the peer is gone.

    Transient read errors (interrupted syscalls) are retried like sends;
    ``EOFError`` means the peer closed and is never retried.
    """
    for attempt in range(TRANSPORT_RETRIES + 1):
        try:
            _maybe_inject_fault()
            payload = conn.recv_bytes()
            break
        except EOFError:
            raise
        except OSError as exc:
            if not _transient(exc) or attempt == TRANSPORT_RETRIES:
                raise
            _retry_pause(attempt)
    frame = pickle.loads(payload)
    if not isinstance(frame, dict) or frame.get("type") not in FRAME_TYPES:
        raise ValueError(f"malformed frame on the wire: {frame!r}")
    return frame


def drain_frames(conn: Connection) -> Iterator[dict]:
    """Yield every frame already buffered on ``conn`` without blocking.

    Stops at an ``EOFError`` (peer closed) so callers can drain the last
    frames of a dying worker before handling its death.
    """
    while True:
        try:
            if not conn.poll():
                return
            yield recv_frame(conn)
        except (EOFError, OSError):
            return


#: Frames whose payload aliases live kernel/adapter state on the sender.
_STATE_FRAMES = frozenset({STATE, RESTART_STATE})

#: Called with each frame a worker-side end receives.
Deliver = Callable[[dict], None]


class PipeEnd:
    """One end of a worker process's duplex pipe: pickled frames."""

    def __init__(self, conn: Connection) -> None:
        self.conn = conn

    @property
    def waitable(self) -> Connection:
        """What ``multiprocessing.connection.wait`` watches for this end."""
        return self.conn

    def send(self, frame: dict) -> None:
        send_frame(self.conn, frame)

    def poll(self) -> bool:
        return self.conn.poll()

    def recv(self) -> dict:
        return recv_frame(self.conn)

    def drain(self) -> Iterator[dict]:
        """Every frame already buffered; stops quietly at a closed peer."""
        return drain_frames(self.conn)

    def listen(
        self, loop: asyncio.AbstractEventLoop, deliver: Deliver
    ) -> Callable[[], None]:
        """Feed incoming frames to ``deliver`` from ``loop``'s fd reader.

        A closed peer delivers one ``drain`` frame: the parent is gone, so
        the worker winds down.  Returns the call that stops listening.
        """
        fd = self.conn.fileno()

        def on_readable() -> None:
            try:
                while self.conn.poll():
                    deliver(recv_frame(self.conn))
            except (EOFError, OSError):
                deliver({"type": DRAIN})
                loop.remove_reader(fd)

        loop.add_reader(fd, on_readable)
        return lambda: loop.remove_reader(fd)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class InlineEnd:
    """One end of an in-process worker link: frames pass by reference.

    A listening end (the worker's) gets each frame delivered on send; the
    other end (the parent's) buffers them for :meth:`recv` and calls
    ``on_frame``, which the parent's event-loop pump uses as its wake-up.
    Sending to a closed end raises ``BrokenPipeError``, like a pipe.
    """

    def __init__(self) -> None:
        self.peer: InlineEnd | None = None
        self.inbox: deque[dict] = deque()
        self.on_frame: Callable[[], None] | None = None
        self.closed = False
        self._deliver: Deliver | None = None

    def send(self, frame: dict) -> None:
        peer = self.peer
        if peer is None or peer.closed:
            raise BrokenPipeError("inline peer is closed")
        if frame["type"] in _STATE_FRAMES:
            frame = copy.deepcopy(frame)
        if peer._deliver is not None:
            peer._deliver(frame)
            return
        peer.inbox.append(frame)
        if peer.on_frame is not None:
            peer.on_frame()

    def poll(self) -> bool:
        return bool(self.inbox)

    def recv(self) -> dict:
        if not self.inbox:
            raise EOFError("no frame buffered on the inline link")
        return self.inbox.popleft()

    def drain(self) -> Iterator[dict]:
        """Every frame already buffered, oldest first."""
        while self.inbox:
            yield self.inbox.popleft()

    def listen(
        self, loop: asyncio.AbstractEventLoop, deliver: Deliver
    ) -> Callable[[], None]:
        """Deliver buffered and future frames straight to ``deliver``."""
        self._deliver = deliver
        while self.inbox:
            deliver(self.inbox.popleft())

        def stop() -> None:
            self._deliver = None

        return stop

    def close(self) -> None:
        self.closed = True


def inline_pair() -> tuple[InlineEnd, InlineEnd]:
    """Two connected :class:`InlineEnd` objects (parent end, worker end)."""
    parent, worker = InlineEnd(), InlineEnd()
    parent.peer, worker.peer = worker, parent
    return parent, worker
