"""Wall-clock soak harness for the sharded edge tier.

``repro soak`` drives :class:`~repro.serve.shard.ShardRuntime` under the
deterministic load shapes of :mod:`repro.serve.load` and reports, per
shape:

* per-stage latency — count, mean, max and p50/p95/p99 of ``queue`` (feed
  to step inside a worker), ``serve`` (one sample per edge-slot: the
  worker's shard step over its edge count), ``trade`` (parent fold +
  allowance-trading step) and ``slot`` (release to fold, end-to-end).  Each
  stage is the summary of the runtime's ``serve/stage/<stage>`` tracer
  :class:`~repro.obs.metrics.Timer`, the same numbers ``GET /metrics``
  serves: count, mean and max are exact, and a quantile is the upper edge
  of the log bucket that holds the exact quantile, capped at the max, so a
  p99 gate never passes a run whose true p99 breaches it;
* throughput (served events per wall second);
* the accounting equation ``in == served + shed + offline``, checked
  *exactly* — a soak that leaks or double-counts events fails its run;
* under ``--chaos`` (a :class:`~repro.serve.chaos.ChaosPlan`), the
  self-healing gate: injected worker kills must be healed by supervised
  restarts (``on_worker_death`` defaults to ``"restart"`` when chaos is
  given), every arrival must still be accounted for, and the
  death-to-serving recovery latency is its own ``recovery`` stage;
* under ``--ingress`` (an :class:`~repro.ingress.IngressConfig`), the
  request-level accounting gate ``requests_in == served + shed + offline
  + dropped``, per-class deadline-hit rates, and the ``deferral`` stage,
  computed exactly from the run's wait histogram
  (:attr:`~repro.ingress.stats.IngressStats.waits`).  Unlike every other
  stage its unit is *slots* (its ``_s`` keys read as slots): deferral is a
  scheduling decision on the slot grid, not a wall-clock measurement.

The harness only reads a finished run; it adds nothing to the runtime's
hot path.  Reports are schema-versioned JSON (``SOAK_FORMAT_VERSION``)
with no NaN anywhere: an empty stage reports ``null`` for its mean and
quantiles.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.obs.metrics import histogram_summary
from repro.serve.chaos import ChaosPlan
from repro.serve.config import ServeConfig
from repro.serve.reconfig import ReconfigPlan
from repro.serve.shard import ShardRuntime
from repro.sim.config import ScenarioConfig

if TYPE_CHECKING:  # import cycle: repro.ingress imports repro.serve
    from repro.ingress.config import IngressConfig

__all__ = [
    "DEFERRAL_STAGE",
    "SOAK_FORMAT_VERSION",
    "SoakReport",
    "run_soak",
]

#: Format tag written into serialized soak reports; bump on breaking changes.
#: v2 added the self-healing fields (worker_deaths/restarts/reconfigs/
#: degraded_workers/recovery_ok) and the ``recovery`` latency stage.
#: v3 added the ``ingress`` request-accounting summary and the ``deferral``
#: wait stage (units: slots, not seconds).
#: v4 took stage quantiles from bucketed tracer timers (``deferral``: exact)
#: and reports an empty stage's mean and quantiles as ``null``, not NaN.
SOAK_FORMAT_VERSION = 4

#: Latency stages a soak run always reports, in pipeline order.
STAGES = ("queue", "serve", "trade", "slot")

#: Extra stage reported under a restart policy: worker death to its first
#: live outcome after a supervised respawn.
RECOVERY_STAGE = "recovery"

#: Extra stage reported under ingress: slots a released request waited past
#: its arrival slot.  The only stage whose unit is slots, not seconds.
DEFERRAL_STAGE = "deferral"


def _deferral_stage(waits: dict[int, int]) -> dict[str, float | int | None]:
    """The ``deferral`` stage, exact from a ``wait -> requests`` histogram."""
    ordered = sorted(waits)
    return histogram_summary(
        ordered,
        [waits[w] for w in ordered],
        float(sum(w * count for w, count in waits.items())),
        float(ordered[-1]) if ordered else 0.0,
    )


@dataclass(frozen=True)
class SoakReport:
    """One load shape's soak outcome: accounting, throughput, latency."""

    shape: str
    seed: int
    num_edges: int
    num_workers: int
    horizon: int
    total_events: int
    wall_seconds: float
    events_in: int
    events_served: int
    events_shed: int
    events_dropped_offline: int
    accounting_ok: bool
    throughput_eps: float
    stages: dict[str, dict[str, float | int | None]] = field(default_factory=dict)
    worker_deaths: int = 0
    restarts: int = 0
    reconfigs: int = 0
    degraded_workers: int = 0
    recovery_ok: bool = True
    #: Request-level accounting summary (:meth:`IngressStats.summary`)
    #: when the soak ran with an ingress tier; ``None`` otherwise.
    ingress: dict | None = None

    def to_dict(self) -> dict[str, object]:
        return {"format_version": SOAK_FORMAT_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "SoakReport":
        version = payload.get("format_version")
        if version != SOAK_FORMAT_VERSION:
            raise ValueError(
                f"unsupported soak format_version {version!r} "
                f"(this build reads {SOAK_FORMAT_VERSION})"
            )
        fields = dict(payload)
        fields.pop("format_version")
        return cls(**fields)


def run_soak(
    shape: str,
    *,
    num_edges: int,
    num_workers: int,
    horizon: int,
    total_events: int,
    seed: int = 0,
    slot_duration: float = 0.0,
    num_models: int = 4,
    n_test: int = 200,
    queue_capacity: int = 4096,
    chaos: ChaosPlan | None = None,
    reconfig: ReconfigPlan | None = None,
    on_worker_death: str | None = None,
    ingress: "IngressConfig | None" = None,
) -> SoakReport:
    """Soak one load shape through a sharded wall-clock run.

    Wall clock with shedding backpressure — the production-shaped
    configuration — and ``slot_duration=0`` free-running by default so CI
    smokes are bounded by compute, not by sleeping.

    A ``chaos`` plan flips the death policy to ``"restart"`` (unless
    ``on_worker_death`` overrides it) so the soak exercises the
    self-healing path, and the report gains recovery-latency quantiles
    plus the healing tallies.  ``accounting_ok`` stays the exact equation;
    the ``events_in == total_events`` leg is only waived when a shard
    genuinely degraded (its unserved slots legitimately never arrived).

    An ``ingress`` config mounts the request-level tier above the shape
    adapter: the report gains the ``ingress`` accounting summary, the
    ``deferral`` wait stage (units: slots), and ``accounting_ok`` also
    requires the request identity ``requests_in == served + shed +
    offline + dropped`` (waived, like the volume leg, only when a shard
    degraded — a dead worker's queued requests legitimately never
    resolved).
    """
    injecting = chaos is not None and not chaos.is_empty
    policy = on_worker_death or ("restart" if injecting else "fail")
    scenario = ScenarioConfig(
        dataset="synthetic",
        num_edges=num_edges,
        horizon=horizon,
        num_models=num_models,
        n_test=n_test,
        seed=seed,
    )
    config = ServeConfig(
        scenario=scenario,
        seed=seed,
        label=f"soak-{shape}",
        adapter="shape",
        shape=shape,
        shape_total_events=total_events,
        shape_seed=seed,
        virtual_clock=False,
        backpressure="shed",
        slot_duration=slot_duration,
        queue_capacity=queue_capacity,
        num_workers=num_workers,
        on_worker_death=policy,
        ingress=ingress.to_dict() if ingress is not None else None,
    )
    runtime = ShardRuntime(config, chaos=chaos, reconfig=reconfig)
    started = time.monotonic()
    runtime.run()
    wall_seconds = time.monotonic() - started
    tracer = runtime.tracer
    events_in = tracer.counter("serve/events_in").value
    events_served = tracer.counter("serve/events_served").value
    events_shed = tracer.counter("serve/events_shed").value
    events_dropped = tracer.counter("serve/events_dropped_offline").value
    worker_deaths = tracer.counter("serve/shard_deaths").value
    restarts = tracer.counter("serve/restarts").value
    reconfigs = tracer.counter("serve/reconfigs").value
    degraded = sum(1 for s in runtime.health()["shards"] if s["failed"])
    tracked = STAGES + ((RECOVERY_STAGE,) if policy == "restart" else ())
    stages = {
        stage: tracer.timer(f"serve/stage/{stage}").summary() for stage in tracked
    }
    ingress_summary = None
    ingress_ok = True
    volume_in = events_in
    if runtime.ingress is not None:
        stages[DEFERRAL_STAGE] = _deferral_stage(runtime.ingress.waits)
        ingress_summary = runtime.ingress.summary()
        ingress_ok = (
            runtime.ingress.accounting_ok(
                events_served, events_shed, events_dropped
            )
            or degraded > 0
        )
        # Thinning conserves counts, so the volume leg moves up one level:
        # every shaped event must appear as a request.
        volume_in = runtime.ingress.requests_in
    return SoakReport(
        shape=shape,
        seed=seed,
        num_edges=num_edges,
        num_workers=num_workers,
        horizon=horizon,
        total_events=total_events,
        wall_seconds=wall_seconds,
        events_in=events_in,
        events_served=events_served,
        events_shed=events_shed,
        events_dropped_offline=events_dropped,
        accounting_ok=(
            events_in == events_served + events_shed + events_dropped
            and (volume_in == total_events or degraded > 0)
            and ingress_ok
        ),
        throughput_eps=(
            events_served / wall_seconds if wall_seconds > 0 else 0.0
        ),
        stages=stages,
        worker_deaths=worker_deaths,
        restarts=restarts,
        reconfigs=reconfigs,
        degraded_workers=degraded,
        recovery_ok=(worker_deaths == 0 or degraded == 0),
        ingress=ingress_summary,
    )
