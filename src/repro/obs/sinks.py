"""Event sinks: where the tracer's structured events go.

Two built-ins cover the common cases — :class:`InMemorySink` for tests and
programmatic inspection, :class:`JsonlSink` for streaming one JSON object
per line to a file or an already-open stream (stdout included).
:class:`EdgeFilterSink` wraps any sink and forwards only the events anchored
at one edge (``repro trace --edge I`` uses it).  Anything with
``write(event)`` / ``close()`` methods can serve as a sink.
"""

from __future__ import annotations

import json
import queue
import threading
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator

from repro.obs.events import Event, event_from_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import EventSink

__all__ = [
    "AsyncQueueSink",
    "EdgeFilterSink",
    "InMemorySink",
    "JsonlSink",
    "iter_events",
    "read_events",
]


def _json_default(value: object) -> object:
    """Coerce numpy scalars (anything with ``.item()``) to builtin types."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"event field of type {type(value).__name__} is not JSON-serializable")


class InMemorySink:
    """Collects events in a list; supports per-type counting."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def write(self, event: Event) -> None:
        """Append one event."""
        self.events.append(event)

    def close(self) -> None:
        """No resources to release."""

    def counts_by_type(self) -> dict[str, int]:
        """Number of collected events per type tag."""
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.type] = counts.get(event.type, 0) + 1
        return counts

    def of_type(self, tag: str) -> list[Event]:
        """All collected events whose type tag equals ``tag``."""
        return [event for event in self.events if event.type == tag]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


class JsonlSink:
    """Writes each event as one JSON object per line.

    ``target`` may be a path (the sink opens and owns the file, closing it
    on :meth:`close`) or an already-open text stream such as ``sys.stdout``
    (left open — the caller owns it).
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self._handle: IO[str] = Path(target).open("w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.events_written = 0

    def write(self, event: Event) -> None:
        """Serialize one event as a JSON line."""
        self._handle.write(json.dumps(event.as_dict(), default=_json_default))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush, and close the handle if this sink opened it."""
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()


class AsyncQueueSink:
    """Hands events to a background thread that drains into an inner sink.

    The producing (hot) path pays only a bounded non-blocking enqueue; a
    single daemon thread performs the serialization and I/O, so event order
    is preserved and the inner sink's output is byte-identical to writing
    it directly — provided nothing was dropped.  When the queue is full the
    event is *dropped* and counted in ``dropped`` rather than blocking the
    control loop (the serving trade-off: lose telemetry, never stall
    inference).

    ``close()`` drains everything already enqueued, joins the worker, and
    closes the inner sink.
    """

    _SENTINEL = None

    def __init__(self, inner: "EventSink", *, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.inner = inner
        self.capacity = capacity
        self.events_written = 0
        self.dropped = 0
        self._queue: queue.Queue[Event | None] = queue.Queue(maxsize=capacity)
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name="repro-obs-async-sink", daemon=True
        )
        self._worker.start()

    def _drain(self) -> None:
        while True:
            event = self._queue.get()
            if event is self._SENTINEL:
                self._queue.task_done()
                return
            self.inner.write(event)
            self.events_written += 1
            self._queue.task_done()

    def write(self, event: Event) -> None:
        """Enqueue one event; drop (and count) if the queue is full."""
        if self._closed:
            raise ValueError("write to a closed AsyncQueueSink")
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1

    @property
    def pending(self) -> int:
        """Events enqueued but not yet written by the worker."""
        return self._queue.qsize()

    def close(self) -> None:
        """Drain the queue, stop the worker, and close the inner sink."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(self._SENTINEL)  # blocks until there is room
        self._worker.join()
        self.inner.close()


class EdgeFilterSink:
    """Forwards only the events anchored at one edge to an inner sink.

    Only per-edge events (those with an ``edge`` field — model switches and
    block boundaries) can match; system-wide events such as slot starts,
    trades, dual updates, and emissions carry no edge and are dropped.
    ``events_seen`` counts everything offered, ``events_forwarded`` what
    passed the filter.
    """

    def __init__(self, inner: "EventSink", edge: int) -> None:
        self.inner = inner
        self.edge = int(edge)
        self.events_seen = 0
        self.events_forwarded = 0
        self.forwarded_counts: dict[str, int] = {}

    def write(self, event: Event) -> None:
        """Forward ``event`` iff it is anchored at the configured edge."""
        self.events_seen += 1
        if getattr(event, "edge", None) == self.edge:
            self.events_forwarded += 1
            counts = self.forwarded_counts
            counts[event.type] = counts.get(event.type, 0) + 1
            self.inner.write(event)

    def close(self) -> None:
        """Close the wrapped sink."""
        self.inner.close()


def iter_events(path: str | Path) -> Iterator[Event]:
    """Stream a JSONL event log lazily, one typed event at a time.

    Unlike :func:`read_events` this never materializes the log: memory use
    is O(1) in the trace size, so multi-GB serve logs replay fine.  Blank
    lines are skipped.  A *final* line that fails to parse and has no
    trailing newline is treated as the torn write of a crashed producer and
    silently ends the stream; a malformed line anywhere else (or a complete
    final line) raises ``ValueError`` with the line number — corruption in
    the middle of a log must surface, only an honest truncation is
    forgiven.
    """
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as exc:
                if not raw.endswith("\n"):
                    return
                raise ValueError(
                    f"{path}:{lineno}: malformed JSONL event: {exc}"
                ) from exc
            yield event_from_dict(payload)


def read_events(path: str | Path) -> list[Event]:
    """Load a JSONL event log back into typed events (blank lines skipped)."""
    events: list[Event] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events
