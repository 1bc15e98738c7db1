"""Compare two reports written by ``perf/run.py --runs R --json OUT``.

    python3 perf/compare.py A.json B.json [--claim WORKLOAD:METRIC ...]

A is the parent, B the change.  For every workload both reports ran, it
prints each side's median and quartiles of every end-to-end metric and a
verdict per metric:

* ``ok``: B's median is not worse than A's by more than the metric's bound
  in BENCHMARK.json;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: the spread between a side's quartiles, as a share of its
  median, is wider than the bound, unless every run of B reads better than
  every run of A.

A claim that B improved a metric on a workload holds only if B wins at
least nine tenths of at least ten runs paired by seed (ties count for
neither), the medians differ by more than the distance between A's
quartiles, and B fails no more operations than A.  The exit code is 1 if
anything regressed or a claim failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(report: dict, workload: str, metric: str) -> dict[int, float]:
    runs = report["workloads"][workload]["runs"]
    return {run["seed"]: run["metrics"][metric]["value"] for run in runs if run}


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if direction == "lower" else b > a


def verdict(a: list[float], b: list[float], spec: dict) -> tuple[str, float]:
    qa, qb = quartiles(a), quartiles(b)
    change = (qb[1] - qa[1]) / qa[1]
    worse = change if spec["better"] == "lower" else -change
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    dominates = all(better(x, y, spec["better"]) for x in a for y in b)
    if spread > spec["bound"] and not dominates:
        return "unresolved", change
    return ("regressed" if worse > spec["bound"] else "ok"), change


def failures(report: dict, workload: str) -> int:
    return sum(run.get("failed", 0) for run in report["workloads"][workload]["runs"])


def check_claim(a: dict, b: dict, claim: str, specs: dict) -> tuple[bool, str]:
    workload, _, metric = claim.partition(":")
    if metric not in specs or workload not in a["workloads"] or workload not in b["workloads"]:
        return False, f"claim {claim}: unknown workload or metric"
    direction = specs[metric]["better"]
    va, vb = values(a, workload, metric), values(b, workload, metric)
    seeds = sorted(set(va) & set(vb))
    wins = sum(better(va[s], vb[s], direction) for s in seeds)
    qa = quartiles([va[s] for s in seeds]) if seeds else (0.0, 0.0, 0.0)
    qb = quartiles([vb[s] for s in seeds]) if seeds else (0.0, 0.0, 0.0)
    reasons = []
    if len(seeds) < MIN_PAIRS:
        reasons.append(f"only {len(seeds)} pairs, need {MIN_PAIRS}")
    if wins < WIN_SHARE * len(seeds):
        reasons.append(f"won {wins} of {len(seeds)} pairs")
    if abs(qb[1] - qa[1]) <= qa[2] - qa[0]:
        reasons.append("medians differ by no more than A's quartile spread")
    if failures(b, workload) > failures(a, workload):
        reasons.append("B fails more operations than A")
    status = "holds" if not reasons else "fails: " + "; ".join(reasons)
    return not reasons, f"claim {claim}: {wins}/{len(seeds)} pairs won, {status}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="parent report")
    parser.add_argument("b", type=Path, help="change report")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    if a.get("machine") != b.get("machine"):
        print(f"warning: machines differ: {a.get('machine')} vs {b.get('machine')}")
    status = 0
    for workload in [w for w in a["workloads"] if w in b["workloads"]]:
        print(f"{workload}  (failed ops: A {failures(a, workload)}, B {failures(b, workload)})")
        print(f"  {'metric':22s} {'A q1 / median / q3':>40s} {'B q1 / median / q3':>40s}  change  verdict")
        for name, spec in specs.items():
            va = list(values(a, workload, name).values())
            vb = list(values(b, workload, name).values())
            if not va or not vb:
                continue
            word, change = verdict(va, vb, spec)
            status = status or word == "regressed"
            cells = [" / ".join(f"{x:.4g}" for x in quartiles(v)) for v in (va, vb)]
            print(f"  {name:22s} {cells[0]:>40s} {cells[1]:>40s} {change:+7.1%}  {word}")
    for claim in args.claim:
        held, line = check_claim(a, b, claim, specs)
        print(line)
        status = status or not held
    return int(bool(status))


if __name__ == "__main__":
    sys.exit(main())
