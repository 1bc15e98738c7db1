"""Benchmark of the simulator and the 1-worker serve tier.

One workload, in this process::

    python3 perf/run.py --workload sim-vectorized --seed 3 --seconds 10 --trace 0

warms up at a small size (checking a reference path gives the same result),
times the set-up five times, then repeats the workload until ``--seconds``
have passed and prints every end-to-end metric (``--trace 0``) or, from a
second, traced pass, every per-layer metric (``--trace 1``).  The last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A wrong result exits with code 1 and counts every operation
as failed.

Every workload, each in a fresh process, one at a time::

    python3 perf/run.py [--seed N] [--runs R] [--workloads a,b] [--json OUT]

runs ``R`` untraced runs (seeds ``N`` to ``N + R - 1``) and one traced run
of each workload, and writes every run's record to ``OUT``, the input of
``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Units of the end-to-end metrics, as BENCHMARK.json lists them.
E2E_UNITS = {
    "setup_s": "s",
    "edge_slots_per_s": "1/s",
    "events_per_s": "1/s",
    "cpu_us_per_edge_slot": "us",
    "slot_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Slot-latency percentiles printed and recorded.  Only the median is an
#: end-to-end metric: p99 rests on a few 8-slot checkpoint windows of
#: ``serve-restart`` and spread by a quarter between seeds.
SLOT_PERCENTILES = (50, 90, 95, 99)
#: Untraced repetitions at least, whatever ``--seconds`` says.
MIN_REPS = 3


def percentile(ordered: list[float], q: float) -> float:
    """Exact ``q``-th percentile of sorted samples (linear interpolation)."""
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def load_pinned(path: Path, smoke: bool, workload: str) -> dict[str, str]:
    pinned = json.loads(path.read_text())
    return pinned["smoke" if smoke else "full"].get(workload, {})


def measure(args) -> dict:
    """Run one workload as the options say; return its full record."""
    from layers import LAYER_METRICS, LayerProfiler, instrument, layer_metrics
    from workloads import WORKLOADS, Stamps

    workload = WORKLOADS[args.workload]
    horizon = workload.size(args.smoke)
    seed = args.seed
    stamps = Stamps()
    workload.install(stamps)
    errors = []

    # Untimed warm-up at a small size: fills caches, finishes lazy set-up,
    # and checks the reference path agrees on this seed.
    small = workload.smoke_horizon
    warm = workload.rep(seed, small, stamps)
    reference = workload.reference_digest(seed, small)
    errors += warm.errors
    if reference and reference != warm.digest:
        errors.append(f"warm-up digest {warm.digest} != reference {reference}")

    # Set-up time drifts with the host in phases shorter than a second, so
    # its samples are spread over the run: one extra set-up before each
    # untraced repetition, plus the repetition's own.
    setups = []

    def timed_setup() -> float:
        gc.collect()
        start = time.perf_counter()
        target = workload.setup(seed, horizon, stamps)
        elapsed = time.perf_counter() - start
        del target
        return elapsed

    def repeat(budget: float, min_reps: int, profiler=None) -> list:
        reps, start = [], time.perf_counter()
        while len(reps) < min_reps or time.perf_counter() - start < budget:
            if profiler is None:
                setups.append(timed_setup())
            reps.append(workload.rep(seed, horizon, stamps, profiler))
            if profiler is None:
                setups.append(reps[-1].setup_s)
        return reps

    traced = []
    if args.trace:
        reps = repeat(args.seconds / 2, 1)
        profiler = LayerProfiler()
        instrument(profiler)
        traced = repeat(args.seconds / 2, 1, profiler)
    else:
        reps = repeat(args.seconds, MIN_REPS)

    digests = [rep.digest for rep in reps + traced]
    for rep in reps + traced:
        errors += rep.errors
    if len(set(digests)) != 1:
        errors.append(f"repetitions disagree: {sorted(set(digests))}")
    pinned = load_pinned(args.pinned, args.smoke, workload.name).get(str(seed))
    if pinned is not None and digests[0] != pinned:
        errors.append(f"digest {digests[0]} != pinned {pinned}")

    latencies = sorted(x for rep in reps for x in rep.latencies)
    if args.trace:
        def wall(rep):
            return rep.setup_s + rep.run_s

        overhead = statistics.median(map(wall, traced)) / statistics.median(
            map(wall, reps)
        )
        per_rep = [layer_metrics(rep.processes) for rep in traced]
        values = {
            name: statistics.median(r[name] for r in per_rep) for name in LAYER_METRICS
        }
        values["obs.events"] = traced[0].obs_events
        values["trace.overhead"] = overhead
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        units.update({"obs.events": "count", "trace.overhead": "ratio"})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "edge_slots_per_s": statistics.median(r.edge_slots / r.run_s for r in reps),
            "events_per_s": statistics.median(r.events / r.run_s for r in reps),
            "cpu_us_per_edge_slot": statistics.median(
                1e6 * r.cpu_s / r.edge_slots for r in reps
            ),
            "slot_p50_ms": 1e3 * percentile(latencies, 50),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = E2E_UNITS
    attempted = sum(rep.attempted for rep in reps + traced)
    failed = sum(rep.failed for rep in reps + traced)
    correct = not errors
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": correct,
        "errors": errors,
        "attempted": attempted,
        "failed": failed if correct else attempted,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "reps": len(reps),
        "traced_reps": len(traced),
        "slot_samples": len(latencies),
        "slot_percentiles_ms": {
            q: 1e3 * percentile(latencies, q) for q in SLOT_PERCENTILES
        },
        "setup_samples": setups,
        "digests": digests,
        "reference_digest": reference,
        "processes": traced[0].processes if traced else [],
    }


def print_record(record: dict) -> None:
    print(
        f"{record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"reps {record['reps']}+{record['traced_reps']} traced  "
        f"slot samples {record['slot_samples']}  "
        f"failed {record['failed']}/{record['attempted']}  "
        f"correct {record['correct']}"
    )
    for error in record["errors"]:
        print(f"  ERROR {error}")
    if record["slot_samples"]:
        tail = "  ".join(
            f"p{q} {ms:.3f}" for q, ms in record["slot_percentiles_ms"].items()
        )
        print(f"  slot latency ms over {record['slot_samples']} samples: {tail}")
    for proc in record["processes"]:
        print(f"  {proc['role']}: wall {proc['wall_s']:.4f} s, cpu {proc['cpu_s']:.4f} s")
        rows = sorted(proc["rows"].items(), key=lambda kv: -kv[1])
        for name, seconds in rows + [("residual", proc["residual_s"])]:
            if seconds or name == "residual":
                share = 100.0 * seconds / proc["wall_s"]
                calls = proc["calls"].get(name, "")
                print(f"    {name:32s} {seconds:10.4f} s {share:6.1f} %  {calls}")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}")


def run_workload(args) -> int:
    record = measure(args)
    print_record(record)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if record["correct"] else 1


def machine_fingerprint() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_suite(args) -> int:
    from workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"unknown workloads {unknown}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    status = 0
    report = {
        "machine": machine_fingerprint(),
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {name: {"runs": [], "traced": None} for name in names},
    }
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.json"

        def child(name: str, seed: int, trace: int) -> dict:
            nonlocal status
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--json", str(out),
                "--pinned", str(args.pinned),
            ]
            if args.smoke:
                command.append("--smoke")
            out.unlink(missing_ok=True)
            code = subprocess.run(command, check=False).returncode
            status = status or code
            # A crash exits 1 too, but writes no record.
            return json.loads(out.read_text()) if out.exists() else {}

        for offset in range(args.runs):
            for name in names:
                record = child(name, args.seed + offset, 0)
                report["workloads"][name]["runs"].append(record)
        for name in names:
            report["workloads"][name]["traced"] = child(name, args.seed, 1)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--workloads", help="comma-separated workloads (default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--smoke", action="store_true", help="self-test sizes")
    parser.add_argument("--json", help="write the full record(s) here")
    parser.add_argument(
        "--pinned", type=Path, default=HERE / "digests.json",
        help="pinned result digests for seeds 0 and 1",
    )
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
