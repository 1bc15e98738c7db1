"""Command-line interface.

Examples::

    python -m repro.cli simulate --selection Ours --trading Ours --edges 10
    python -m repro.cli simulate --selection UCB --trading LY --seed 3 \
        --save-json run.json
    python -m repro.cli trace --selection Ours --trading Ours > events.jsonl
    python -m repro.cli trace --trace-output run.jsonl --summary
    python -m repro.cli trace --edge 0 --summary --trace-output edge0.jsonl
    python -m repro.cli trace --replay run.jsonl
    python -m repro.cli trace --replay parent.jsonl shard0.jsonl shard1.jsonl
    python -m repro.cli serve --edges 4 --horizon 80 --trace-output serve.jsonl
    python -m repro.cli serve --config serve.json --snapshot-every 16 \
        --snapshot-path state.pkl
    python -m repro.cli serve --resume state.pkl
    python -m repro.cli serve --wall-clock --slot-duration 0.05 \
        --backpressure shed --health-port 8080
    python -m repro.cli serve --edges 64 --workers 4 --wall-clock \
        --backpressure shed
    python -m repro.cli soak --smoke
    python -m repro.cli soak --shape spike --edges 64 --workers 4
    python -m repro.cli zoo --dataset mnist
    python -m repro.cli experiment fig10 fig11 --full
    python -m repro.cli experiment fig03 fig04 --workers 4 --cache .repro_cache
    python -m repro.cli experiment fig06 --faults plan.json
    python -m repro.cli faults template > plan.json
    python -m repro.cli faults validate plan.json
    python -m repro.cli faults run plan.json --selection Ours --trading Ours
    python -m repro.cli cache prune --max-age-days 30 --max-size-mb 512 --dry-run
    python -m repro.cli bench --smoke --check
    python -m repro.cli bench simulator --output-dir bench-out
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    SELECTION_NAMES,
    TRADING_NAMES,
    run_combo,
    run_offline,
)
from repro.metrics import summarize_run
from repro.sim import ScenarioConfig, build_scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve import ServeConfig

__all__ = ["build_parser", "main"]


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """Scenario/run options shared by ``simulate`` and ``trace``."""
    parser.add_argument("--dataset", choices=("synthetic", "mnist", "cifar10"),
                        default="synthetic")
    parser.add_argument("--edges", type=int, default=10)
    parser.add_argument("--horizon", type=int, default=160)
    parser.add_argument("--cap", type=float, default=500.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--switching-weight", type=float, default=1.0)


#: The unified execution-options group shared by ``experiment``, ``serve``,
#: and ``bench`` (and ``trace`` for the trace-output member).  One canonical
#: spelling and help string per flag — commands attach the members that
#: apply to them via :func:`_add_shared_run_options`, so the same concept is
#: never spelled two ways on two subcommands.
_SHARED_RUN_OPTIONS: dict[str, tuple[tuple[str, ...], dict]] = {
    "workers": (("--workers",),
                dict(type=int, default=1, metavar="N",
                     help="process-pool size for sweep execution "
                          "(1 = serial)")),
    "cache": (("--cache",),
              dict(metavar="DIR", default=None,
                   help="result-cache directory (default: .repro_cache)")),
    "no-cache": (("--no-cache",),
                 dict(action="store_true",
                      help="disable the result cache entirely")),
    "faults": (("--faults",),
               dict(metavar="PLAN.json", default=None,
                    help="fault plan injected into the run "
                         "(see `repro faults template`)")),
    "trace-output": (("--trace-output",),
                     dict(metavar="LOG.jsonl", default=None,
                          help="stream structured events to this JSONL "
                               "file")),
}


def _add_shared_run_options(
    parser: argparse.ArgumentParser, *names: str
) -> None:
    """Attach the named members of the shared execution-options group."""
    group = parser.add_argument_group("shared run options")
    for name in names:
        flags, kwargs = _SHARED_RUN_OPTIONS[name]
        group.add_argument(*flags, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Carbon-neutralizing edge AI inference (ICDCS 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one policy combination")
    sim.add_argument("--selection", choices=SELECTION_NAMES, default="Ours")
    sim.add_argument("--trading", choices=TRADING_NAMES + ("Offline",), default="Ours")
    _add_scenario_options(sim)
    sim.add_argument("--save-json", metavar="PATH", default=None,
                     help="write the full per-slot result as JSON")
    sim.add_argument("--save-npz", metavar="PATH", default=None,
                     help="write the full per-slot result as compressed NPZ")

    trace = sub.add_parser(
        "trace",
        help="run one combination and emit its structured event log (JSONL)",
    )
    trace.add_argument("--selection", choices=SELECTION_NAMES, default="Ours")
    trace.add_argument("--trading", choices=TRADING_NAMES, default="Ours")
    _add_scenario_options(trace)
    _add_shared_run_options(trace, "trace-output")
    trace.add_argument("--summary", action="store_true",
                       help="print per-type event counts after the run")
    trace.add_argument("--edge", type=int, default=None, metavar="I",
                       help="keep only per-edge events (model switches, "
                            "block boundaries) of edge I")
    trace.add_argument("--replay", metavar="LOG.jsonl", nargs="+", default=None,
                       help="re-aggregate recorded trace(s) into summary "
                            "tables instead of running anything; several "
                            "logs (e.g. a sharded run's parent + per-shard "
                            "traces) merge deterministically by slot")

    serve = sub.add_parser(
        "serve",
        help="run the async streaming edge-fleet runtime (repro.serve)",
    )
    serve.add_argument("--config", metavar="CONFIG.json", default=None,
                       help="serve configuration file (scenario flags are "
                            "ignored when given; explicit serve flags still "
                            "override)")
    serve.add_argument("--selection", choices=SELECTION_NAMES, default=None)
    serve.add_argument("--trading", choices=TRADING_NAMES, default=None)
    _add_scenario_options(serve)
    serve.add_argument("--label", default=None,
                       help="run label (default: '<selection>-<trading>')")
    serve.add_argument("--label-delay", type=int, default=None, metavar="D",
                       help="deliver bandit feedback D slots late")
    serve.add_argument("--adapter",
                       choices=("poisson", "replay", "shape"),
                       default=None,
                       help="stream adapter feeding the edges "
                            "(default: poisson)")
    serve.add_argument("--replay-log", metavar="LOG.jsonl", default=None,
                       help="trace whose arrival events drive the replay "
                            "adapter")
    serve.add_argument("--shape", choices=("constant", "sawtooth", "spike",
                                           "step"),
                       default=None,
                       help="load shape for the shape adapter")
    serve.add_argument("--shape-events", type=int, default=None, metavar="N",
                       help="total events the shape grid carries")
    serve.add_argument("--shape-seed", type=int, default=None, metavar="S",
                       help="seed of the shape grid's jitter stream")
    clock = serve.add_mutually_exclusive_group()
    clock.add_argument("--virtual-clock", dest="clock", action="store_true",
                       default=None,
                       help="deterministic lockstep clock, bit-identical "
                            "to the simulator (default)")
    clock.add_argument("--wall-clock", dest="clock", action="store_false",
                       help="real-time pacing with pipelined slots")
    serve.add_argument("--slot-duration", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock slot length (0 = free-running)")
    serve.add_argument("--queue-capacity", type=int, default=None, metavar="N",
                       help="per-edge queue bound in events (default: 1024)")
    serve.add_argument("--backpressure", choices=("block", "shed"),
                       default=None,
                       help="full-queue policy; shed requires --wall-clock")
    serve.add_argument("--pipeline-depth", type=int, default=None, metavar="K",
                       help="wall-clock slots in flight at once (default: 8)")
    serve.add_argument("--snapshot-every", type=int, default=None, metavar="S",
                       help="persist full controller state every S slots")
    serve.add_argument("--snapshot-path", metavar="PATH", default=None,
                       help="where snapshots are written (atomic replace)")
    serve.add_argument("--resume", metavar="SNAPSHOT", default=None,
                       help="resume a killed run from its snapshot file, "
                            "reconfig plan included (ignores --config and "
                            "scenario flags; serve flags that would change "
                            "the run are an error)")
    _add_shared_run_options(serve, "faults", "trace-output")
    serve.add_argument("--health-port", type=int, default=None, metavar="PORT",
                       help="serve /healthz and /metrics JSON on this port "
                            "while running (0 = ephemeral)")
    serve.add_argument("--max-slots", type=int, default=None, metavar="K",
                       help="stop after K completed slots (resume later "
                            "from the snapshot)")
    serve.add_argument("--workers", dest="serve_workers", type=int,
                       default=None, metavar="W",
                       help="shard the edge tier across W worker processes "
                            "(0 = in-process; default: 0)")
    serve.add_argument("--on-worker-death",
                       choices=("fail", "degrade", "restart"),
                       default=None,
                       help="sharded runs: raise on a dead worker (fail, "
                            "default), mark its edges offline and finish "
                            "the horizon (degrade), or respawn it from its "
                            "last checkpoint with backoff (restart)")
    serve.add_argument("--max-restarts", type=int, default=None, metavar="N",
                       help="restart budget per worker before it degrades "
                            "(default: 3)")
    serve.add_argument("--reconfig", metavar="PLAN.json", default=None,
                       help="apply a live reconfiguration plan "
                            "(add_edge/remove_edge/rebalance ops at slot "
                            "barriers)")
    serve.add_argument("--chaos", metavar="PLAN.json", default=None,
                       help="inject a deterministic chaos plan (worker "
                            "kills, stalls, transport drops; runs at least "
                            "one worker process)")
    serve.add_argument("--ingress", nargs="?", const="default", default=None,
                       metavar="CONFIG.json",
                       help="mount the request-level ingress tier (SLA "
                            "classes, admission, deadline deferral); with "
                            "no argument uses the default config, else "
                            "loads an IngressConfig JSON file")

    soak = sub.add_parser(
        "soak",
        help="soak the sharded edge tier under deterministic load shapes",
    )
    from repro.serve.cli import add_arguments as add_soak_arguments

    add_soak_arguments(soak)

    zoo = sub.add_parser("zoo", help="train and describe a model zoo")
    zoo.add_argument("--dataset", choices=("mnist", "cifar10"), default="mnist")
    zoo.add_argument("--zoo-seed", type=int, default=1234)
    zoo.add_argument("--n-train", type=int, default=2000)
    zoo.add_argument("--n-test", type=int, default=4000)
    zoo.add_argument("--bits", type=int, default=None,
                     help="also show int-quantized variants at this bit width")

    exp = sub.add_parser("experiment", help="run paper-figure experiments")
    exp.add_argument("figures", nargs="*", help="e.g. fig10 fig11 (default: all)")
    exp.add_argument("--full", action="store_true", help="paper-scale settings")
    _add_shared_run_options(exp, "workers", "cache", "no-cache", "faults")

    bench = sub.add_parser(
        "bench",
        help="run the measured perf suites and gate against BENCH baselines",
    )
    from repro.bench.cli import add_arguments as add_bench_arguments

    add_bench_arguments(bench)
    _add_shared_run_options(bench, "faults", "trace-output")

    faults = sub.add_parser(
        "faults", help="author, validate, and exercise fault-injection plans"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    tmpl = faults_sub.add_parser(
        "template", help="print an example fault plan covering every fault kind"
    )
    tmpl.add_argument("--output", metavar="PATH", default=None,
                      help="write the plan here instead of stdout")
    val = faults_sub.add_parser(
        "validate", help="parse a plan file and report its specs"
    )
    val.add_argument("plan", metavar="PLAN.json")
    frun = faults_sub.add_parser(
        "run", help="run one policy combination under a fault plan"
    )
    frun.add_argument("plan", metavar="PLAN.json")
    frun.add_argument("--selection", choices=SELECTION_NAMES, default="Ours")
    frun.add_argument("--trading", choices=TRADING_NAMES, default="Ours")
    _add_scenario_options(frun)

    cache = sub.add_parser("cache", help="manage the on-disk sweep result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prune = cache_sub.add_parser(
        "prune", help="evict cache entries by age and/or total size"
    )
    prune.add_argument("--dir", dest="directory", metavar="DIR",
                       default=".repro_cache",
                       help="cache directory (default: .repro_cache)")
    prune.add_argument("--max-age-days", type=float, default=None, metavar="D",
                       help="evict entries older than D days")
    prune.add_argument("--max-size-mb", type=float, default=None, metavar="M",
                       help="then evict oldest entries until the cache fits M MiB")
    prune.add_argument("--dry-run", action="store_true",
                       help="report what would be evicted without deleting")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = ScenarioConfig(
        dataset=args.dataset,
        num_edges=args.edges,
        horizon=args.horizon,
        carbon_cap_kg=args.cap,
        switching_weight=args.switching_weight,
    )
    scenario = build_scenario(config)
    if args.trading == "Offline":
        result = run_offline(scenario, args.seed)
    else:
        result = run_combo(scenario, args.selection, args.trading, args.seed)
    summary = summarize_run(result, config.weights)
    rows = [[key, value] for key, value in summary.as_dict().items()]
    print(format_table(["metric", "value"], rows, title=f"Run: {result.label}"))
    if args.save_json:
        from repro.sim.io import save_result_json

        print(f"saved JSON -> {save_result_json(result, args.save_json)}")
    if args.save_npz:
        from repro.sim.io import save_result_npz

        print(f"saved NPZ  -> {save_result_npz(result, args.save_npz)}")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.obs import summarize_traces

    summary = summarize_traces(args.replay)
    source = ", ".join(args.replay)
    overview = [
        ["events", summary.events_total],
        ["slots seen", summary.slots_seen],
        ["horizon", summary.horizon],
        ["bought kg", round(summary.total_bought, 6)],
        ["sold kg", round(summary.total_sold, 6)],
        ["trading cost", round(summary.trading_cost, 6)],
        ["trades rejected", summary.trades_rejected],
        ["snapshots", summary.snapshots],
        ["final cum. emissions kg", round(summary.final_cumulative_kg, 6)],
        ["final holdings kg", round(summary.final_holdings_kg, 6)],
        ["final violation kg", round(summary.final_violation_kg, 6)],
    ]
    if summary.final_dual is not None:
        overview.append(["final dual", round(summary.final_dual, 6)])
    print(format_table(["metric", "value"], overview,
                       title=f"Trace replay: {source}"))
    print(format_table(["event type", "count"], summary.event_rows(),
                       title="Events by type"))
    if summary.edges:
        print(format_table(
            ["edge", "arrivals", "switches", "blocks", "fb lost",
             "retries", "shed"],
            summary.edge_rows(),
            title="Per-edge aggregates",
        ))
    if summary.faults_by_kind:
        rows = [[kind, count]
                for kind, count in sorted(summary.faults_by_kind.items())]
        print(format_table(["fault kind", "events"], rows,
                           title="Injected faults"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import EdgeFilterSink, JsonlSink, Tracer

    if args.replay is not None:
        return _cmd_trace_replay(args)

    config = ScenarioConfig(
        dataset=args.dataset,
        num_edges=args.edges,
        horizon=args.horizon,
        carbon_cap_kg=args.cap,
        switching_weight=args.switching_weight,
    )
    scenario = build_scenario(config)
    sink = JsonlSink(args.trace_output if args.trace_output else sys.stdout)
    tracer_sink = sink if args.edge is None else EdgeFilterSink(sink, args.edge)
    tracer = Tracer([tracer_sink])
    try:
        result = run_combo(
            scenario, args.selection, args.trading, args.seed, tracer=tracer
        )
        tracer.close()
    except BrokenPipeError:
        # Downstream consumer (e.g. ``repro trace | head``) closed the
        # stream; that is a normal way to end a streaming run.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    if args.edge is None:
        counts = tracer.event_counts()
    else:
        counts = tracer_sink.forwarded_counts
    # When streaming, stdout is the event log — keep the summary off it.
    report = sys.stdout if args.trace_output else sys.stderr
    scope = "" if args.edge is None else f" (edge {args.edge})"
    print(
        f"traced {result.label}: {sink.events_written} events{scope}"
        + (f" -> {args.trace_output}" if args.trace_output else ""),
        file=report,
    )
    if args.summary:
        for name in sorted(counts):
            print(f"  {name:<16} {counts[name]}", file=report)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import AsyncQueueSink, JsonlSink, Tracer
    from repro.serve import ServeConfig, ShardRuntime, load_snapshot

    # (config field, flag, value) of every flag that overrides the config.
    override_flags = (
        ("virtual_clock", "--virtual-clock/--wall-clock", args.clock),
        ("selection", "--selection", args.selection),
        ("trading", "--trading", args.trading),
        ("label", "--label", args.label),
        ("label_delay", "--label-delay", args.label_delay),
        ("adapter", "--adapter", args.adapter),
        ("replay_log", "--replay-log", args.replay_log),
        ("slot_duration", "--slot-duration", args.slot_duration),
        ("queue_capacity", "--queue-capacity", args.queue_capacity),
        ("backpressure", "--backpressure", args.backpressure),
        ("pipeline_depth", "--pipeline-depth", args.pipeline_depth),
        ("snapshot_every", "--snapshot-every", args.snapshot_every),
        ("snapshot_path", "--snapshot-path", args.snapshot_path),
        ("health_port", "--health-port", args.health_port),
        ("shape", "--shape", args.shape),
        ("shape_total_events", "--shape-events", args.shape_events),
        ("shape_seed", "--shape-seed", args.shape_seed),
        ("num_workers", "--workers", args.serve_workers),
        ("on_worker_death", "--on-worker-death", args.on_worker_death),
        ("max_restarts", "--max-restarts", args.max_restarts),
    )
    if args.resume is not None:
        # A resumed run is the snapshot's run: its config and reconfig plan.
        refused = [
            flag
            for _, flag, value in (
                *override_flags,
                ("ingress", "--ingress", args.ingress),
                ("reconfig", "--reconfig", args.reconfig),
                ("chaos", "--chaos", args.chaos),
            )
            if value is not None
        ]
        if refused:
            print("serve --resume continues the snapshot's config and "
                  f"reconfig plan; it cannot take {', '.join(refused)}",
                  file=sys.stderr)
            return 2

    plan = None
    if args.faults is not None:
        from repro.faults import load_plan

        plan = load_plan(args.faults)

    tracer = Tracer()
    sink = None
    if args.trace_output is not None:
        sink = AsyncQueueSink(JsonlSink(args.trace_output))
        tracer.add_sink(sink)

    def traced(config: ServeConfig) -> Tracer | None:
        # Events are kept only where something reads them: the trace file
        # or the health port's /metrics.  An untraced runtime counts into
        # a tracer of its own, and its in-process edges keep the columnar
        # shard step.
        return tracer if sink is not None or config.health_port is not None else None

    if args.resume is not None:
        state = load_snapshot(args.resume)
        config = ServeConfig.from_dict(state.config)
        runtime = ShardRuntime.from_state(
            state, tracer=traced(config), faults=plan,
            shard_trace_base=args.trace_output,
        )
        print(f"resuming {runtime.label} from {args.resume} "
              f"at slot {runtime.completed_slot + 1}/{runtime.horizon}")
    else:
        if args.config is not None:
            config = ServeConfig.from_file(args.config)
        else:
            config = ServeConfig(
                scenario=ScenarioConfig(
                    dataset=args.dataset,
                    num_edges=args.edges,
                    horizon=args.horizon,
                    carbon_cap_kg=args.cap,
                    switching_weight=args.switching_weight,
                ),
                seed=args.seed,
            )
        overrides = {
            name: value
            for name, _, value in override_flags
            if value is not None
        }
        if args.ingress is not None:
            from repro.ingress.config import IngressConfig

            ingress_config = (
                IngressConfig()
                if args.ingress == "default"
                else IngressConfig.from_file(args.ingress)
            )
            overrides["ingress"] = ingress_config.to_dict()
        if overrides:
            config = config.with_overrides(**overrides)
        shard_kwargs = {}
        if args.chaos is not None:
            from repro.serve import load_chaos_plan

            shard_kwargs["chaos"] = load_chaos_plan(args.chaos)
        if args.reconfig is not None:
            from repro.serve import load_reconfig_plan

            shard_kwargs["reconfig"] = load_reconfig_plan(args.reconfig)
        if shard_kwargs.get("chaos") and config.num_workers == 0:
            # Chaos plans kill worker processes.
            config = config.with_overrides(num_workers=1)
        runtime = ShardRuntime(
            config, tracer=traced(config), faults=plan,
            shard_trace_base=args.trace_output,
            **shard_kwargs,
        )

    result = runtime.run(max_slots=args.max_slots)
    tracer.close()

    if result is not None:
        summary = summarize_run(result, runtime.scenario.config.weights)
        rows = [[key, value] for key, value in summary.as_dict().items()]
        print(format_table(["metric", "value"], rows,
                           title=f"Served: {result.label}"))
    else:
        print(f"served {runtime.completed_slot + 1}/{runtime.horizon} slots "
              f"of {runtime.label}; resume with --resume "
              f"{runtime.config.snapshot_path}")
    counters = runtime.tracer.metrics_snapshot()["counters"]
    counter_rows = [
        [name.removeprefix("serve/"), int(value)]
        for name, value in sorted(counters.items())
        if name.startswith("serve/")
    ]
    print(format_table(["serve counter", "value"], counter_rows,
                       title="Serve counters"))
    ingress_rows = [
        [name.removeprefix("ingress/"), int(value)]
        for name, value in sorted(counters.items())
        if name.startswith("ingress/")
    ]
    if ingress_rows:
        print(format_table(["ingress counter", "value"], ingress_rows,
                           title="Ingress counters"))
    if sink is not None:
        print(f"traced {sink.events_written} events -> {args.trace_output}"
              + (f" ({sink.dropped} dropped)" if sink.dropped else ""))
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.sim.zoo import quantized_trained_profiles, trained_profiles

    kwargs = dict(zoo_seed=args.zoo_seed, n_train=args.n_train, n_test=args.n_test)
    profiles = trained_profiles(args.dataset, **kwargs)
    rows = [
        [p.name, p.size_bytes / 1e3, p.expected_loss, p.loss_std, p.accuracy]
        for p in profiles
    ]
    print(
        format_table(
            ["model", "size KB", "E[loss]", "loss std", "accuracy"],
            rows,
            title=f"{args.dataset} zoo (seed {args.zoo_seed})",
        )
    )
    if args.bits is not None:
        quantized = quantized_trained_profiles(
            args.dataset, bits=args.bits, **kwargs
        )
        rows = [
            [p.name, p.size_bytes / 1e3, p.expected_loss, p.loss_std, p.accuracy]
            for p in quantized
        ]
        print()
        print(
            format_table(
                ["model", "size KB", "E[loss]", "loss std", "accuracy"],
                rows,
                title=f"int{args.bits} variants",
            )
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import main as run_all_main

    argv = list(args.figures)
    if args.full:
        argv.append("--full")
    argv += ["--workers", str(args.workers)]
    if args.cache is not None:
        argv += ["--cache", args.cache]
    if args.no_cache:
        argv.append("--no-cache")
    if args.faults is not None:
        argv += ["--faults", args.faults]
    run_all_main(argv)
    return 0


def _template_plan():
    """A representative plan exercising every registered fault kind."""
    from repro.faults import (
        DownloadFailure,
        EdgeOutage,
        FaultPlan,
        FeedbackLoss,
        GilbertElliottLoss,
        MarketOutage,
        TradeRejection,
    )

    return FaultPlan((
        EdgeOutage(edge=0, start=20, end=30),
        FeedbackLoss(probability=0.1),
        GilbertElliottLoss(p_bad=0.1, p_good=0.3, loss_bad=0.9, edge=1),
        DownloadFailure(probability=0.2, max_backoff=8),
        MarketOutage(start=40, end=60),
        TradeRejection(probability=0.05),
    ))


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import load_plan

    if args.faults_command == "template":
        text = _template_plan().to_json()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"wrote template plan -> {args.output}")
        else:
            print(text)
        return 0

    plan = load_plan(args.plan)
    if args.faults_command == "validate":
        kinds: dict[str, int] = {}
        for spec in plan.specs:
            kinds[spec.kind] = kinds.get(spec.kind, 0) + 1
        rows = [[kind, count] for kind, count in sorted(kinds.items())]
        print(format_table(["fault kind", "specs"],
                           rows or [["(empty plan)", 0]],
                           title=f"{args.plan}: {len(plan)} spec(s), valid"))
        return 0

    # faults run: one combination under the plan, with fault-event counts.
    from repro.obs import Tracer

    config = ScenarioConfig(
        dataset=args.dataset,
        num_edges=args.edges,
        horizon=args.horizon,
        carbon_cap_kg=args.cap,
        switching_weight=args.switching_weight,
    )
    scenario = build_scenario(config)
    tracer = Tracer()
    result = run_combo(
        scenario, args.selection, args.trading, args.seed,
        tracer=tracer, faults=plan,
    )
    summary = summarize_run(result, config.weights)
    rows = [[key, value] for key, value in summary.as_dict().items()]
    print(format_table(["metric", "value"], rows,
                       title=f"Run: {result.label} (faulted)"))
    counts = tracer.event_counts()
    fault_rows = [
        [name, counts.get(name, 0)]
        for name in ("fault_injected", "feedback_lost", "retry", "trade_rejected")
    ]
    print(format_table(["fault event", "count"], fault_rows, title="Fault events"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.cli import run as bench_run

    return bench_run(args)


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.serve.cli import run as soak_run

    return soak_run(args)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.cache import ResultCache

    if args.max_age_days is None and args.max_size_mb is None:
        print("cache prune: nothing to do "
              "(pass --max-age-days and/or --max-size-mb)", file=sys.stderr)
        return 2
    cache = ResultCache(args.directory)
    report = cache.prune(
        max_age_seconds=(None if args.max_age_days is None
                         else args.max_age_days * 86400.0),
        max_size_bytes=(None if args.max_size_mb is None
                        else int(args.max_size_mb * 1024 * 1024)),
        dry_run=args.dry_run,
    )
    verb = "would remove" if report.dry_run else "removed"
    print(f"cache prune ({cache.directory}): examined {report.examined}, "
          f"{verb} {report.removed} ({report.removed_bytes} bytes), "
          f"kept {report.kept} ({report.kept_bytes} bytes)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "soak":
        return _cmd_soak(args)
    if args.command == "zoo":
        return _cmd_zoo(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
