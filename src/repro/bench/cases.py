"""The benchmark case registry and measurement loop.

Each :class:`BenchCase` pairs a setup callable (builds the workload once,
outside the timed region) with the measured thunk it returns.  Timing goes
through :meth:`repro.obs.tracer.Tracer.timer` for wall time (monotonic
clock) and ``time.process_time`` for CPU time; the reported figure is the
best of ``rounds`` rounds after one warmup, the standard estimator that is
robust to scheduler noise.

Three suites cover the perf trajectory the vectorized engine is gated on:

* ``simulator`` — end-to-end runs at I=10 and I=64, scalar reference loop
  vs the vectorized fast path (same :class:`~repro.spec.RunSpec`, same
  digests), plus scenario construction;
* ``core`` — the algorithmic kernels: scalar-vs-batch Tsallis-OMD solves,
  block-schedule construction, a full Algorithm-1 horizon;
* ``nn`` — batched vs sample-at-a-time forward passes through the numpy
  model zoo.

Suites derive machine-relative speedup ratios (``derive_ratios``) that the
``repro bench --check`` gate enforces even across machines.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.bench.report import BenchReport, BenchResult, machine_fingerprint
from repro.obs.tracer import Tracer
from repro.utils.rng import spawn_generator

__all__ = [
    "BenchCase",
    "SUITE_NAMES",
    "derive_ratios",
    "run_case",
    "run_suite",
    "suite_cases",
]

#: End-to-end fleet sizes; 64 is the acceptance scale for the speedup gate.
_SMALL_EDGES = 10
_LARGE_EDGES = 64
_HORIZON = 160


@dataclass(frozen=True)
class BenchCase:
    """One measurable workload.

    ``build`` runs un-timed and returns the thunk that is timed; the thunk
    must be safe to call repeatedly (fresh policy state per call where
    state matters).  ``work`` is the work one thunk call performs, in
    ``unit`` terms, for throughput reporting.
    """

    suite: str
    name: str
    build: Callable[[], Callable[[], object]]
    work: float
    unit: str
    rounds: int = 3
    meta: dict[str, object] = field(default_factory=dict)


def run_case(case: BenchCase, *, smoke: bool = False) -> BenchResult:
    """Measure one case: warmup, then best-of-rounds wall/CPU seconds.

    Smoke mode (CI) caps at two timed rounds — still after the warmup, so
    first-call caches and allocator effects never pollute the numbers, and
    best-of-two so a single scheduler hiccup cannot double a fast case and
    flake a derived-ratio gate.  Still noisier than full best-of-N, which
    is why smoke reports gate on derived ratios and coverage, never on
    absolute wall times.
    """
    thunk = case.build()
    rounds = min(2, case.rounds) if smoke else case.rounds
    tracer = Tracer()
    timer = tracer.timer(f"bench/{case.suite}/{case.name}")
    thunk()  # warmup: first-call caches and allocator effects
    best_wall = float("inf")
    best_cpu = float("inf")
    for _ in range(rounds):
        before = timer.total_seconds
        cpu_before = time.process_time()
        with timer:
            thunk()
        cpu = time.process_time() - cpu_before
        wall = timer.total_seconds - before
        best_wall = min(best_wall, wall)
        best_cpu = min(best_cpu, cpu)
    return BenchResult(
        name=case.name,
        wall_seconds=best_wall,
        cpu_seconds=best_cpu,
        rounds=rounds,
        work=case.work,
        unit=case.unit,
        meta=dict(case.meta),
    )


# ---------------------------------------------------------------------------
# simulator suite: end-to-end engine throughput, scalar vs vectorized.


def _simulate_build(
    num_edges: int,
    vectorized: bool,
    spec_overrides: dict[str, object] | None = None,
) -> Callable[[], object]:
    from repro.sim.config import ScenarioConfig
    from repro.sim.simulator import Simulator
    from repro.spec import RunSpec

    spec = RunSpec(
        scenario=ScenarioConfig(
            dataset="synthetic", num_edges=num_edges, horizon=_HORIZON
        ),
        selection="Ours",
        trading="Ours",
        seed=0,
    )
    if spec_overrides:
        spec = spec.with_overrides(**spec_overrides)
    scenario = spec.build_scenario()

    def thunk() -> object:
        # A fresh simulator per call: policies are stateful across a run.
        sim = Simulator.from_spec(scenario, spec)
        result = sim.run(vectorized=vectorized)
        sim.tracer.close()
        return result

    return thunk


def _scenario_build() -> Callable[[], object]:
    from repro.sim.config import ScenarioConfig
    from repro.sim.scenario import build_scenario

    config = ScenarioConfig(
        dataset="synthetic", num_edges=_SMALL_EDGES, horizon=_HORIZON
    )
    return lambda: build_scenario(config)


def _simulator_cases(
    spec_overrides: dict[str, object] | None = None,
) -> list[BenchCase]:
    cases = [
        BenchCase(
            suite="simulator",
            name="scenario_build_i10",
            build=_scenario_build,
            work=1.0,
            unit="scenarios",
        )
    ]
    for edges in (_SMALL_EDGES, _LARGE_EDGES):
        for label, vectorized in (("scalar", False), ("vectorized", True)):
            if vectorized and "trace_output" in (spec_overrides or {}):
                # Tracing forces the scalar reference loop; the vectorized
                # twin has nothing comparable to measure.
                continue
            meta: dict[str, object] = {
                "edges": edges,
                "horizon": _HORIZON,
                "engine": label,
                "spec": "Ours-Ours seed 0 synthetic",
            }
            if spec_overrides:
                meta["overrides"] = sorted(spec_overrides)
            def build(
                edges: int = edges, vectorized: bool = vectorized
            ) -> Callable[[], object]:
                return _simulate_build(edges, vectorized, spec_overrides)

            cases.append(
                BenchCase(
                    suite="simulator",
                    name=f"simulate_{label}_i{edges}",
                    build=build,
                    work=float(edges * _HORIZON),
                    unit="slot-edges",
                    meta=meta,
                )
            )
    return cases


# ---------------------------------------------------------------------------
# core suite: the paper's algorithmic kernels.

_TSALLIS_ROWS = 64
_TSALLIS_ARMS = 6
_TSALLIS_REPEAT = 20


def _tsallis_build(batch: bool) -> Callable[[], object]:
    from repro.core.tsallis import (
        tsallis_inf_probabilities,
        tsallis_inf_probabilities_batch,
    )

    rng = spawn_generator(0, "bench-tsallis")
    losses = rng.uniform(0.0, 100.0, size=(_TSALLIS_ROWS, _TSALLIS_ARMS))
    etas = rng.uniform(0.1, 2.5, size=_TSALLIS_ROWS)

    if batch:

        def thunk() -> object:
            out = None
            for _ in range(_TSALLIS_REPEAT):
                out = tsallis_inf_probabilities_batch(losses, etas)
            return out

    else:

        def thunk() -> object:
            out = None
            for _ in range(_TSALLIS_REPEAT):
                for row in range(_TSALLIS_ROWS):
                    out = tsallis_inf_probabilities(losses[row], float(etas[row]))
            return out

    return thunk


def _schedule_build() -> Callable[[], object]:
    from repro.core.blocks import build_schedule

    return lambda: build_schedule(10000, 3.0, 6)


def _alg1_build() -> Callable[[], object]:
    from repro.core.model_selection import OnlineModelSelection

    def thunk() -> object:
        policy = OnlineModelSelection(6, _HORIZON, 2.5, spawn_generator(2, "bench-alg1"))
        for t in range(_HORIZON):
            model = policy.select(t)
            policy.observe(t, model, 0.5)
        return policy

    return thunk


def _core_cases() -> list[BenchCase]:
    solves = float(_TSALLIS_ROWS * _TSALLIS_REPEAT)
    return [
        BenchCase(
            suite="core",
            name="tsallis_scalar_64x6",
            build=lambda: _tsallis_build(batch=False),
            work=solves,
            unit="solves",
            rounds=5,
        ),
        BenchCase(
            suite="core",
            name="tsallis_batch_64x6",
            build=lambda: _tsallis_build(batch=True),
            work=solves,
            unit="solves",
            rounds=5,
        ),
        BenchCase(
            suite="core",
            name="block_schedule_10000",
            build=_schedule_build,
            work=10000.0,
            unit="slots",
            rounds=5,
        ),
        BenchCase(
            suite="core",
            name="alg1_full_horizon",
            build=_alg1_build,
            work=float(_HORIZON),
            unit="slots",
            rounds=5,
        ),
    ]


# ---------------------------------------------------------------------------
# nn suite: batched vs per-sample forward passes.

_NN_SAMPLES = 64


def _nn_build(model: str, batched: bool) -> Callable[[], object]:
    from repro.nn.models import build_cnn, build_mlp

    rng = spawn_generator(0, "bench-nn-inputs")
    inputs = rng.random((_NN_SAMPLES, 1, 8, 8))
    if model == "mlp":
        net = build_mlp(spawn_generator(1, "bench-mlp"), hidden=128)
    else:
        net = build_cnn(spawn_generator(2, "bench-cnn"), channels=(32, 64))

    if batched:
        return lambda: net.predict_proba(inputs)

    def thunk() -> object:
        out = None
        for row in range(_NN_SAMPLES):
            out = net.predict_proba(inputs[row : row + 1])
        return out

    return thunk


def _nn_cases() -> list[BenchCase]:
    cases = []
    for model in ("mlp", "cnn"):
        for label, batched in (("per_sample", False), ("batch64", True)):
            cases.append(
                BenchCase(
                    suite="nn",
                    name=f"{model}_{label}",
                    build=(
                        lambda model=model, batched=batched: _nn_build(model, batched)
                    ),
                    work=float(_NN_SAMPLES),
                    unit="samples",
                    rounds=5,
                    meta={"model": model, "samples": _NN_SAMPLES},
                )
            )
    return cases


_SUITE_BUILDERS: dict[str, Callable[[], list[BenchCase]]] = {
    "simulator": _simulator_cases,
    "core": _core_cases,
    "nn": _nn_cases,
}

#: Registered suite names, in canonical run order.
SUITE_NAMES: tuple[str, ...] = tuple(_SUITE_BUILDERS)

#: Ratio name -> (numerator case, denominator case); the gate enforces
#: these machine-relative speedups even when fingerprints differ.
_RATIO_DEFS: dict[str, dict[str, tuple[str, str]]] = {
    "simulator": {
        "vectorized_speedup_i10": ("simulate_scalar_i10", "simulate_vectorized_i10"),
        "vectorized_speedup_i64": ("simulate_scalar_i64", "simulate_vectorized_i64"),
    },
    "core": {
        "tsallis_batch_speedup": ("tsallis_scalar_64x6", "tsallis_batch_64x6"),
    },
    "nn": {
        "mlp_batch_speedup": ("mlp_per_sample", "mlp_batch64"),
        "cnn_batch_speedup": ("cnn_per_sample", "cnn_batch64"),
    },
}


def suite_cases(
    suite: str, *, spec_overrides: dict[str, object] | None = None
) -> list[BenchCase]:
    """The registered cases of one suite (fresh instances).

    ``spec_overrides`` are :meth:`~repro.spec.RunSpec.with_overrides`
    fields applied to the end-to-end simulator cases (e.g. a fault plan or
    trace output to measure their overhead); other suites ignore them.
    """
    try:
        builder = _SUITE_BUILDERS[suite]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {suite!r}; registered: {', '.join(SUITE_NAMES)}"
        ) from None
    if suite == "simulator":
        return _simulator_cases(spec_overrides)
    return builder()


def derive_ratios(suite: str, results: list[BenchResult]) -> dict[str, float]:
    """Suite-defined speedup ratios from measured results."""
    by_name = {result.name: result for result in results}
    ratios = {}
    for name, (slow, fast) in _RATIO_DEFS.get(suite, {}).items():
        if slow in by_name and fast in by_name:
            ratios[name] = by_name[slow].wall_seconds / by_name[fast].wall_seconds
    return ratios


def run_suite(
    suite: str,
    *,
    smoke: bool = False,
    progress: Callable[[str], None] | None = None,
    spec_overrides: dict[str, object] | None = None,
) -> BenchReport:
    """Measure every case of ``suite`` and assemble its report."""
    results = []
    for case in suite_cases(suite, spec_overrides=spec_overrides):
        if progress is not None:
            progress(f"{suite}/{case.name}")
        results.append(run_case(case, smoke=smoke))
    return BenchReport(
        suite=suite,
        machine=machine_fingerprint(),
        results=tuple(results),
        ratios=derive_ratios(suite, results),
        mode="smoke" if smoke else "full",
    )
