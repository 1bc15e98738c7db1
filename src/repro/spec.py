"""The unified run specification: :class:`RunSpec`.

A :class:`RunSpec` names *which* simulation run is meant: a frozen, typed,
JSON-round-trippable value holding the scenario recipe, the policy names,
the seed, the fault plan, and the trace options.  It is the one way to
name a run: ``Simulator.from_spec``, ``repro.run(spec)`` and
``SweepEngine.run_specs`` all take one.

    >>> spec = RunSpec(selection="UCB", trading="Ours", seed=3)
    >>> RunSpec.from_json(spec.to_json()) == spec
    True
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.faults.plan import FaultPlan
from repro.sim.config import CostWeights, ScenarioConfig

__all__ = ["RunSpec"]

#: Format tag written into serialized specs; bump on incompatible changes.
RUNSPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RunSpec:
    """Everything that identifies one simulation run.

    Attributes
    ----------
    scenario:
        Scenario recipe, or ``None`` for the default synthetic setup.
        Runners that accept a pre-built :class:`~repro.sim.scenario.Scenario`
        (for common-random-number reuse) take it as a separate argument and
        ignore this field.
    selection / trading:
        Registered policy-family names (see :mod:`repro.policies`).
    seed:
        Root seed driving policies, workloads, and data draws alike.
    label:
        Result label; defaults to ``"<selection>-<trading>"``.
    label_delay:
        Slots by which ground-truth labels lag inference (paper Step 2.3).
    live_inference:
        Recompute forward passes instead of using memoized loss tables.
    faults:
        Deterministic fault plan (the default empty plan changes nothing).
    trace_output:
        Path for a JSONL event trace, or ``None`` for no tracing.
    trace_edge:
        Restrict the trace to one edge's events (requires ``trace_output``).
    """

    scenario: ScenarioConfig | None = None
    selection: str = "Ours"
    trading: str = "Ours"
    seed: int = 0
    label: str | None = None
    label_delay: int = 0
    live_inference: bool = False
    faults: FaultPlan = field(default_factory=FaultPlan)
    trace_output: str | None = None
    trace_edge: int | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None and not isinstance(self.scenario, ScenarioConfig):
            raise TypeError(
                f"scenario must be a ScenarioConfig or None, got "
                f"{type(self.scenario).__name__}"
            )
        if not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan, got {type(self.faults).__name__}"
            )
        if not self.selection or not self.trading:
            raise ValueError("selection and trading names must be non-empty")
        if self.label_delay < 0:
            raise ValueError(
                f"label_delay must be non-negative, got {self.label_delay}"
            )
        if self.trace_edge is not None and self.trace_output is None:
            raise ValueError("trace_edge requires trace_output")

    @property
    def resolved_label(self) -> str:
        """The label results carry: explicit, or ``selection-trading``."""
        return self.label if self.label is not None else f"{self.selection}-{self.trading}"

    def with_overrides(self, **kwargs) -> "RunSpec":
        """Copy with some fields replaced (sweep helper)."""
        return dataclasses.replace(self, **kwargs)

    def build_scenario(self):
        """Materialize the scenario this spec describes.

        Uses the paper's default synthetic setup when ``scenario`` is
        ``None``.
        """
        from repro.sim.scenario import build_scenario

        config = self.scenario
        if config is None:
            config = ScenarioConfig(dataset="synthetic")
        return build_scenario(config)

    def make_tracer(self):
        """Build the tracer the trace options describe (``None`` if none)."""
        if self.trace_output is None:
            return None
        from repro.obs.sinks import EdgeFilterSink, JsonlSink
        from repro.obs.tracer import Tracer

        sink = JsonlSink(self.trace_output)
        if self.trace_edge is not None:
            sink = EdgeFilterSink(sink, edge=self.trace_edge)
        return Tracer([sink])

    def to_dict(self) -> dict[str, object]:
        """JSON-ready mapping; inverse of :meth:`from_dict`."""
        return {
            "format_version": RUNSPEC_FORMAT_VERSION,
            "scenario": (
                None if self.scenario is None else dataclasses.asdict(self.scenario)
            ),
            "selection": self.selection,
            "trading": self.trading,
            "seed": int(self.seed),
            "label": self.label,
            "label_delay": int(self.label_delay),
            "live_inference": bool(self.live_inference),
            "faults": self.faults.to_dict(),
            "trace_output": self.trace_output,
            "trace_edge": self.trace_edge,
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        """Reconstruct a spec from its :meth:`to_dict` form."""
        if not isinstance(payload, dict):
            raise ValueError(f"run spec must be an object, got {payload!r}")
        version = payload.get("format_version", RUNSPEC_FORMAT_VERSION)
        if version != RUNSPEC_FORMAT_VERSION:
            raise ValueError(
                f"unsupported run-spec format_version {version!r} "
                f"(this build reads {RUNSPEC_FORMAT_VERSION})"
            )
        scenario_raw = payload.get("scenario")
        scenario = None
        if scenario_raw is not None:
            if not isinstance(scenario_raw, dict):
                raise ValueError("scenario must be an object or null")
            fields = dict(scenario_raw)
            weights_raw = fields.pop("weights", None)
            if weights_raw is not None:
                fields["weights"] = CostWeights(**weights_raw)
            scenario = ScenarioConfig(**fields)
        faults_raw = payload.get("faults")
        faults = (
            FaultPlan() if faults_raw is None else FaultPlan.from_dict(faults_raw)
        )
        known = {
            "selection",
            "trading",
            "seed",
            "label",
            "label_delay",
            "live_inference",
            "trace_output",
            "trace_edge",
        }
        kwargs = {key: payload[key] for key in known if key in payload}
        unknown = set(payload) - known - {"format_version", "scenario", "faults"}
        if unknown:
            raise ValueError(f"unknown run-spec fields: {sorted(unknown)}")
        return cls(scenario=scenario, faults=faults, **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from a JSON string."""
        return cls.from_dict(json.loads(text))
