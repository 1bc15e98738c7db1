"""The event bus: a :class:`Tracer` fans events out to sinks.

Instrumented code holds a tracer and guards event construction on
``tracer.enabled``::

    if tracer.enabled:
        tracer.emit(TradeEvent(t=t, buy=z, sell=w, ...))

The default is :data:`NULL_TRACER`, whose ``enabled`` is ``False`` — with
it the instrumentation reduces to one attribute read per site, keeping the
simulator hot path within its overhead budget (the ``trace.overhead``
metric of ``perf/run.py`` measures this).  Tracers also hand out named
:class:`~repro.obs.metrics.Counter`/:class:`~repro.obs.metrics.Timer`
instances so ad-hoc profiling shares the same object.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.obs.events import Event
from repro.obs.metrics import Counter, Timer

__all__ = ["EventSink", "NULL_TRACER", "NullTracer", "Tracer"]


class EventSink(Protocol):
    """Anything that can receive events from a tracer."""

    def write(self, event: Event) -> None:
        """Receive one event."""

    def close(self) -> None:
        """Release any resources held by the sink."""


class Tracer:
    """Dispatches structured events to sinks and owns named metrics.

    Parameters
    ----------
    sinks:
        Initial event sinks; more can be attached with :meth:`add_sink`.
    """

    #: Hot paths test this before building an event; ``NullTracer`` flips it.
    enabled: bool = True

    def __init__(self, sinks: Iterable[EventSink] | None = None) -> None:
        self._sinks: list[EventSink] = list(sinks) if sinks is not None else []
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._event_counts: dict[str, int] = {}

    def add_sink(self, sink: EventSink) -> None:
        """Attach an additional event sink."""
        self._sinks.append(sink)

    def emit(self, event: Event) -> None:
        """Dispatch one event to every sink (and tally it by type)."""
        counts = self._event_counts
        counts[event.type] = counts.get(event.type, 0) + 1
        for sink in self._sinks:
            sink.write(event)

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        """The named timer, created on first use."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    def event_counts(self) -> dict[str, int]:
        """Events emitted so far, per type tag (copy)."""
        return dict(self._event_counts)

    def metrics_snapshot(self) -> dict[str, dict[str, float]]:
        """Counters and timer totals in a JSON-ready mapping."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "timers": {
                name: t.total_seconds for name, t in sorted(self._timers.items())
            },
        }

    def close(self) -> None:
        """Close every sink (file sinks flush and release their handles)."""
        for sink in self._sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(sinks={len(self._sinks)})"


class NullTracer(Tracer):
    """The no-op tracer: drops every event, accepts no sinks.

    ``enabled`` is ``False``, so guarded instrumentation sites skip event
    construction entirely; an unguarded ``emit`` is still safe (and cheap).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def add_sink(self, sink: EventSink) -> None:
        raise TypeError("NullTracer drops all events; use Tracer to collect them")

    def emit(self, event: Event) -> None:
        """Drop the event."""


#: Shared default tracer: safe to use from any number of simulators.
NULL_TRACER = NullTracer()
