"""CLI for the soak harness (mounted as ``repro soak``).

Thin argparse surface over :func:`repro.serve.soak.run_soak`; also
runnable standalone as ``python -m repro.serve.cli``.  All printing of
the serve package lives here — the library modules stay silent.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.serve.config import WORKER_DEATH_POLICIES
from repro.serve.load import SHAPE_NAMES
from repro.serve.soak import SOAK_FORMAT_VERSION, run_soak

__all__ = ["add_arguments", "main", "run"]


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the soak options to ``parser`` (shared with ``repro soak``)."""
    parser.add_argument(
        "--shape",
        choices=SHAPE_NAMES + ("all",),
        default="all",
        help="load shape to soak (default: all four)",
    )
    parser.add_argument(
        "--edges", type=int, default=64, help="fleet size (default: 64)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="worker processes (default: 4)"
    )
    parser.add_argument(
        "--horizon", type=int, default=96, help="slots to serve (default: 96)"
    )
    parser.add_argument(
        "--events",
        type=int,
        default=20000,
        help="total events across the grid (default: 20000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    parser.add_argument(
        "--slot-duration",
        type=float,
        default=0.0,
        help="wall seconds per slot; 0 free-runs (default: 0)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: 4 edges x 2 workers x 48 slots x 2000 events",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN.json",
        help=(
            "inject a deterministic chaos plan (worker kills, stalls, "
            "transport drops); flips the death policy to 'restart'"
        ),
    )
    parser.add_argument(
        "--reconfig",
        default=None,
        metavar="PLAN.json",
        help="apply a live reconfiguration plan at its slot barriers",
    )
    parser.add_argument(
        "--on-worker-death",
        choices=WORKER_DEATH_POLICIES,
        default=None,
        help=(
            "override the worker-death policy (default: 'restart' under "
            "--chaos, else 'fail')"
        ),
    )
    parser.add_argument(
        "--recovery-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "gate: fail the soak when the p99 death-to-serving recovery "
            "latency exceeds this bound"
        ),
    )
    parser.add_argument(
        "--ingress",
        nargs="?",
        const="default",
        default=None,
        metavar="CONFIG.json",
        help=(
            "mount the request-level ingress tier; with no argument uses "
            "the default SLA classes and deferral policy, else loads an "
            "IngressConfig JSON file"
        ),
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the soak report JSON here (default: stdout)",
    )


def run(args: argparse.Namespace) -> int:
    """Execute the soak; returns a process exit code (1 = a gate failed)."""
    from repro.serve.chaos import load_chaos_plan
    from repro.serve.reconfig import load_reconfig_plan

    edges, workers = args.edges, args.workers
    horizon, events = args.horizon, args.events
    if args.smoke:
        edges, workers, horizon, events = 4, 2, 48, 2000
    chaos = load_chaos_plan(args.chaos) if args.chaos else None
    reconfig = load_reconfig_plan(args.reconfig) if args.reconfig else None
    ingress = None
    if args.ingress is not None:
        from repro.ingress.config import IngressConfig

        ingress = (
            IngressConfig()
            if args.ingress == "default"
            else IngressConfig.from_file(args.ingress)
        )
    shapes = SHAPE_NAMES if args.shape == "all" else (args.shape,)
    reports = []
    for shape in shapes:
        report = run_soak(
            shape,
            num_edges=edges,
            num_workers=workers,
            horizon=horizon,
            total_events=events,
            seed=args.seed,
            slot_duration=args.slot_duration,
            chaos=chaos,
            reconfig=reconfig,
            on_worker_death=args.on_worker_death,
            ingress=ingress,
        )
        reports.append(report)
        slot = report.stages["slot"]
        print(
            f"soak {shape:>9}: {report.events_in} in = "
            f"{report.events_served} served + {report.events_shed} shed + "
            f"{report.events_dropped_offline} offline "
            f"[{'OK' if report.accounting_ok else 'BROKEN'}] "
            f"{report.throughput_eps:,.0f} ev/s "
            f"slot p50/p95/p99 = {slot['p50_s'] * 1e3:.1f}/"
            f"{slot['p95_s'] * 1e3:.1f}/{slot['p99_s'] * 1e3:.1f} ms",
            file=sys.stderr,
        )
        if report.ingress is not None:
            ing = report.ingress
            classes = " ".join(
                f"{name}={row['hit_rate']:.3f}"
                if row["hit_rate"] is not None
                else f"{name}=n/a"
                for name, row in ing["per_class"].items()
            )
            deferral = report.stages.get("deferral")
            wait = (
                f"defer p99 = {deferral['p99_s']:.1f} slots"
                if deferral and deferral["count"]
                else "no deferrals"
            )
            print(
                f"soak {shape:>9}: {ing['requests_in']} requests, "
                f"{ing['requests_dropped']} dropped, "
                f"{ing['requests_deferred']} deferred; "
                f"deadline hit {classes} {wait}",
                file=sys.stderr,
            )
        if report.worker_deaths or report.restarts or report.reconfigs:
            recovery = report.stages.get("recovery")
            healed = (
                f"recovery p99 = {recovery['p99_s'] * 1e3:.1f} ms"
                if recovery and recovery["count"]
                else "no recovery samples"
            )
            print(
                f"soak {shape:>9}: {report.worker_deaths} deaths, "
                f"{report.restarts} restarts, {report.reconfigs} reconfigs, "
                f"{report.degraded_workers} degraded "
                f"[{'HEALED' if report.recovery_ok else 'DEGRADED'}] "
                f"{healed}",
                file=sys.stderr,
            )
    payload = {
        "format_version": SOAK_FORMAT_VERSION,
        "reports": [report.to_dict() for report in reports],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    if not all(report.accounting_ok for report in reports):
        print("soak FAILED: accounting equation violated", file=sys.stderr)
        return 1
    if args.chaos and not all(report.recovery_ok for report in reports):
        print(
            "soak FAILED: a chaos-killed worker was not healed",
            file=sys.stderr,
        )
        return 1
    if args.recovery_p99 is not None:
        for report in reports:
            recovery = report.stages.get("recovery")
            if not recovery or not recovery["count"]:
                continue
            if recovery["p99_s"] > args.recovery_p99:
                print(
                    f"soak FAILED: {report.shape} recovery p99 "
                    f"{recovery['p99_s']:.3f}s exceeds the "
                    f"{args.recovery_p99:.3f}s bound",
                    file=sys.stderr,
                )
                return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point mirroring ``repro soak``."""
    parser = argparse.ArgumentParser(
        prog="repro-soak", description="Soak the sharded edge tier."
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())