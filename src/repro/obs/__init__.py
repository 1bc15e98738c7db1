"""Structured simulation observability: events, tracer, sinks, metrics.

The subsystem makes the simulator's per-slot dynamics inspectable while a
run is in flight: the control loop emits typed events (slot starts, model
switches, Algorithm-1 block boundaries, trades, Algorithm-2 dual updates,
realized emissions) through a :class:`Tracer` into pluggable sinks, with a
no-op default whose cost on the hot path is one attribute read per site.

Typical use::

    from repro.obs import InMemorySink, Tracer

    sink = InMemorySink()
    spec = repro.RunSpec(scenario=config, selection="Ours", trading="Ours")
    result = repro.run(spec, tracer=Tracer([sink]))
    switches = sink.of_type("model_switch")

or from the command line: ``repro trace --selection Ours --trading Ours``.
Recorded JSONL traces fold back into summaries via
:func:`summarize_trace` (``repro trace --replay log.jsonl``).
"""

from repro.obs.events import (
    EVENT_TYPES,
    ArrivalEvent,
    BlockBoundaryEvent,
    DualUpdateEvent,
    EmissionEvent,
    Event,
    FaultInjectedEvent,
    FeedbackLostEvent,
    ModelSwitchEvent,
    QueueShedEvent,
    ReconfigAppliedEvent,
    RetryEvent,
    SlotStartEvent,
    SnapshotEvent,
    TradeEvent,
    TradeRejectedEvent,
    WorkerDeathEvent,
    WorkerRestartEvent,
    WorkerSpawnEvent,
    event_from_dict,
    register_event,
)
from repro.obs.metrics import Counter, Timer
from repro.obs.replay import (
    EdgeSummary,
    TraceSummary,
    merge_events,
    summarize_events,
    summarize_trace,
    summarize_traces,
)
from repro.obs.sinks import (
    AsyncQueueSink,
    EdgeFilterSink,
    InMemorySink,
    JsonlSink,
    iter_events,
    read_events,
)
from repro.obs.tracer import NULL_TRACER, EventSink, NullTracer, Tracer

__all__ = [
    "ArrivalEvent",
    "AsyncQueueSink",
    "BlockBoundaryEvent",
    "Counter",
    "DualUpdateEvent",
    "EVENT_TYPES",
    "EdgeFilterSink",
    "EdgeSummary",
    "EmissionEvent",
    "Event",
    "EventSink",
    "FaultInjectedEvent",
    "FeedbackLostEvent",
    "InMemorySink",
    "JsonlSink",
    "ModelSwitchEvent",
    "NULL_TRACER",
    "NullTracer",
    "QueueShedEvent",
    "ReconfigAppliedEvent",
    "RetryEvent",
    "SlotStartEvent",
    "SnapshotEvent",
    "Timer",
    "TraceSummary",
    "TradeEvent",
    "TradeRejectedEvent",
    "Tracer",
    "WorkerDeathEvent",
    "WorkerRestartEvent",
    "WorkerSpawnEvent",
    "event_from_dict",
    "iter_events",
    "merge_events",
    "read_events",
    "register_event",
    "summarize_events",
    "summarize_trace",
    "summarize_traces",
]
