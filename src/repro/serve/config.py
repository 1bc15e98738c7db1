"""Configuration for the streaming serve runtime.

A :class:`ServeConfig` bundles the scenario to serve (a plain
:class:`~repro.sim.config.ScenarioConfig`), the policy combination, and the
runtime knobs — clock mode, queue capacity, backpressure policy, snapshot
cadence, health endpoint.  It round-trips through JSON so ``repro serve
--config serve.json`` and snapshot files can reconstruct the exact runtime.

Two invariants are enforced at construction because they protect the
determinism contract:

* virtual-clock mode cannot shed (shedding depends on wall-clock races, so
  a deterministic run must use ``block`` backpressure);
* the replay adapter needs a trace to replay.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.sim.config import CostWeights, ScenarioConfig

__all__ = [
    "ADAPTER_NAMES",
    "BACKPRESSURE_MODES",
    "WORKER_DEATH_POLICIES",
    "ServeConfig",
]

#: Stream adapters selectable by name in a serve config.
ADAPTER_NAMES = ("poisson", "replay", "shape")

#: What a shard's slot loop does with a burst that does not fit its edge's
#: work queue: ``"block"`` holds it (and stops drawing that edge) until a
#: step makes room; ``"shed"`` drops its payload and queues a zero-weight
#: shed marker in its place.
BACKPRESSURE_MODES = ("block", "shed")

#: What the sharded parent does when a worker process dies mid-horizon:
#: ``"fail"`` raises immediately; ``"degrade"`` marks the dead shard's
#: edges offline for the remaining slots and completes the run with the
#: accounting equation (and the ledger) intact; ``"restart"`` respawns the
#: worker from its last restart checkpoint with capped exponential backoff,
#: replaying the missed slots as offline outcomes, and falls back to
#: ``"degrade"`` once the ``max_restarts`` budget is spent.
WORKER_DEATH_POLICIES = ("fail", "degrade", "restart")


def _scenario_from_dict(payload: dict) -> ScenarioConfig:
    fields = dict(payload)
    weights = fields.get("weights")
    if isinstance(weights, dict):
        try:
            fields["weights"] = CostWeights(**weights)
        except TypeError as exc:
            raise ValueError(f"bad cost weights {weights!r}: {exc}") from exc
    try:
        return ScenarioConfig(**fields)
    except TypeError as exc:
        raise ValueError(f"bad scenario config {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class ServeConfig:
    """Everything needed to launch (or resume) one serve run."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    selection: str = "Ours"
    trading: str = "Ours"
    seed: int = 0
    label: str | None = None
    label_delay: int = 0
    adapter: str = "poisson"
    replay_log: str | None = None
    shape: str | None = None
    shape_total_events: int = 0
    shape_seed: int = 0
    virtual_clock: bool = True
    slot_duration: float = 0.0
    queue_capacity: int = 1024
    backpressure: str = "block"
    pipeline_depth: int = 8
    snapshot_every: int = 0
    snapshot_path: str | None = None
    health_port: int | None = None
    #: ``0`` serves in-process; ``N >= 1`` shards edges across N processes.
    num_workers: int = 0
    on_worker_death: str = "fail"
    max_restarts: int = 3
    restart_backoff_s: float = 0.05
    restart_backoff_max_s: float = 2.0
    restart_state_every: int = 8
    #: Request-level ingress tier config as its JSON dict form
    #: (:meth:`repro.ingress.IngressConfig.to_dict`); ``None`` disables
    #: ingress.  Stored as a dict so the serve config stays a plain
    #: JSON round-tripper and snapshots carry the full ingress contract.
    ingress: dict | None = None

    def __post_init__(self) -> None:
        if self.adapter not in ADAPTER_NAMES:
            raise ValueError(
                f"unknown adapter {self.adapter!r}; expected one of {ADAPTER_NAMES}"
            )
        if self.backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                f"unknown backpressure mode {self.backpressure!r}; "
                f"expected one of {BACKPRESSURE_MODES}"
            )
        if self.virtual_clock and self.backpressure == "shed":
            raise ValueError(
                "virtual-clock mode cannot shed: deterministic runs must "
                'use backpressure="block"'
            )
        if self.adapter == "replay" and not self.replay_log:
            raise ValueError('adapter "replay" requires replay_log')
        if self.adapter == "shape":
            from repro.serve.load import SHAPE_NAMES

            if self.shape not in SHAPE_NAMES:
                raise ValueError(
                    f'adapter "shape" requires shape, one of {SHAPE_NAMES}; '
                    f"got {self.shape!r}"
                )
            if self.shape_total_events < 1:
                raise ValueError(
                    f'adapter "shape" requires shape_total_events >= 1, '
                    f"got {self.shape_total_events}"
                )
        elif self.shape is not None:
            from repro.serve.load import SHAPE_NAMES

            if self.shape not in SHAPE_NAMES:
                raise ValueError(
                    f"unknown load shape {self.shape!r}; "
                    f"expected one of {SHAPE_NAMES}"
                )
        if self.shape_total_events < 0:
            raise ValueError(
                f"shape_total_events must be non-negative, "
                f"got {self.shape_total_events}"
            )
        if self.num_workers < 0:
            raise ValueError(
                f"num_workers must be >= 0, got {self.num_workers}"
            )
        if self.on_worker_death not in WORKER_DEATH_POLICIES:
            raise ValueError(
                f"unknown worker-death policy {self.on_worker_death!r}; "
                f"expected one of {WORKER_DEATH_POLICIES}"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.slot_duration < 0:
            raise ValueError(
                f"slot_duration must be non-negative, got {self.slot_duration}"
            )
        if self.snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be non-negative, got {self.snapshot_every}"
            )
        if self.snapshot_every > 0 and not self.snapshot_path:
            raise ValueError("snapshot_every > 0 requires snapshot_path")
        if self.label_delay < 0:
            raise ValueError(
                f"label_delay must be non-negative, got {self.label_delay}"
            )
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be non-negative, got {self.max_restarts}"
            )
        if self.restart_backoff_s < 0:
            raise ValueError(
                f"restart_backoff_s must be non-negative, "
                f"got {self.restart_backoff_s}"
            )
        if self.restart_backoff_max_s < self.restart_backoff_s:
            raise ValueError(
                f"restart_backoff_max_s ({self.restart_backoff_max_s}) must "
                f"be >= restart_backoff_s ({self.restart_backoff_s})"
            )
        if self.restart_state_every < 1:
            raise ValueError(
                f"restart_state_every must be >= 1, "
                f"got {self.restart_state_every}"
            )
        if self.ingress is not None:
            if not isinstance(self.ingress, dict):
                raise ValueError(
                    f"ingress must be an IngressConfig dict or None, "
                    f"got {type(self.ingress).__name__}"
                )
            # Parse eagerly so a bad embedded config fails at construction,
            # not mid-run.  Lazy import: repro.serve.__init__ imports this
            # module, and repro.ingress imports repro.serve submodules.
            self.ingress_config()

    def ingress_config(self) -> "object | None":
        """The parsed :class:`~repro.ingress.IngressConfig`, or ``None``."""
        if self.ingress is None:
            return None
        from repro.ingress.config import IngressConfig

        return IngressConfig.from_dict(self.ingress)

    @property
    def effective_label(self) -> str:
        """The run label (defaults to the policy combination)."""
        return (
            self.label
            if self.label is not None
            else f"{self.selection}-{self.trading}"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        payload = dataclasses.asdict(self)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServeConfig":
        """Build a config from a mapping, rejecting unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown serve config keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        fields_in = dict(payload)
        scenario = fields_in.get("scenario")
        if isinstance(scenario, dict):
            fields_in["scenario"] = _scenario_from_dict(scenario)
        return cls(**fields_in)

    @classmethod
    def from_file(cls, path: str | Path) -> "ServeConfig":
        """Load a config from a JSON file."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"serve config {path} must hold a JSON object")
        return cls.from_dict(payload)

    def with_overrides(self, **overrides: object) -> "ServeConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **overrides)
