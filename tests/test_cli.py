"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.lint.cli import main as lint_main


class TestParser:
    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.selection == "Ours"
        assert args.trading == "Ours"
        assert args.edges == 10

    def test_unknown_selection_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--selection", "Thompson"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSimulateCommand:
    def test_runs_and_prints_summary(self, capsys):
        code = main(
            [
                "simulate",
                "--selection", "Greedy",
                "--trading", "LY",
                "--edges", "2",
                "--horizon", "16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Greedy-LY" in out
        assert "total_cost" in out

    def test_offline_trading_option(self, capsys):
        code = main(
            ["simulate", "--trading", "Offline", "--edges", "2", "--horizon", "16"]
        )
        assert code == 0
        assert "Offline" in capsys.readouterr().out

    def test_save_json(self, capsys, tmp_path):
        target = tmp_path / "run.json"
        code = main(
            [
                "simulate",
                "--edges", "2",
                "--horizon", "16",
                "--save-json", str(target),
            ]
        )
        assert code == 0
        assert target.exists()
        from repro.sim.io import load_result_json

        assert load_result_json(target).horizon == 16

    def test_save_npz(self, capsys, tmp_path):
        target = tmp_path / "run.npz"
        code = main(
            ["simulate", "--edges", "2", "--horizon", "16", "--save-npz", str(target)]
        )
        assert code == 0
        from repro.sim.io import load_result_npz

        assert load_result_npz(target).num_edges == 2

    def test_switching_weight_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--edges", "2",
                "--horizon", "16",
                "--switching-weight", "4.0",
            ]
        )
        assert code == 0


class TestTraceCommand:
    def run_trace(self, tmp_path, *extra):
        target = tmp_path / "events.jsonl"
        code = main(
            ["trace", "--edges", "3", "--horizon", "16",
             "--trace-output", str(target), "--summary", *extra]
        )
        assert code == 0
        return target

    def test_unfiltered_trace_has_all_event_types(self, capsys, tmp_path):
        from repro.obs import read_events

        target = self.run_trace(tmp_path)
        types = {event.type for event in read_events(target)}
        assert "slot_start" in types and "model_switch" in types

    def test_edge_filter_keeps_only_that_edge(self, capsys, tmp_path):
        from repro.obs import read_events

        target = self.run_trace(tmp_path, "--edge", "1")
        events = read_events(target)
        assert events, "edge 1 must produce at least its first model download"
        assert all(getattr(event, "edge", None) == 1 for event in events)
        out = capsys.readouterr().out
        assert "(edge 1)" in out

    def test_edge_filter_summary_counts_filtered_events(self, capsys, tmp_path):
        from repro.obs import read_events

        target = self.run_trace(tmp_path, "--edge", "0")
        events = read_events(target)
        out = capsys.readouterr().out
        # The summary must describe the filtered stream, not the full run.
        assert f"traced Ours-Ours: {len(events)} events (edge 0)" in out
        assert "slot_start" not in out, "edgeless event types must not be listed"

    def test_edge_filter_empty_match(self, capsys, tmp_path):
        target = self.run_trace(tmp_path, "--edge", "99")
        assert target.read_text() == ""
        out = capsys.readouterr().out
        assert "0 events (edge 99)" in out

    def test_filtered_stream_round_trips_as_jsonl(self, capsys, tmp_path):
        import json

        target = self.run_trace(tmp_path, "--edge", "2")
        for line in target.read_text().splitlines():
            payload = json.loads(line)
            assert payload["edge"] == 2
            assert payload["type"] in ("model_switch", "block_boundary")


class TestExperimentCommand:
    def test_runs_named_figure(self, capsys):
        code = main(["experiment", "fig14", "--no-cache"])
        assert code == 0
        assert "Fig. 14" in capsys.readouterr().out

    def test_unknown_figure_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_workers_and_cache_flags_thread_through(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code = main(
            ["experiment", "fig03", "--workers", "2", "--cache", str(cache_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workers=2" in out
        assert "0 cache hits" in out
        assert any(cache_dir.glob("*/*.json")), "sweep results must be cached"

        code = main(
            ["experiment", "fig03", "--workers", "2", "--cache", str(cache_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 executed" in out, "second run must be served from the cache"

    def test_invalid_worker_count_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig14", "--workers", "0", "--no-cache"])


class TestLintCommand:
    """``repro-lint`` exit-code contract: 0 clean, 1 findings, 2 usage/IO errors."""

    CLEAN = "def double(x):\n    return 2 * x\n"
    DIRTY = "import time\nstamp = time.time()\n"

    def test_clean_file_exits_zero(self, capsys, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(self.CLEAN)
        assert lint_main([str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        assert lint_main([str(target)]) == 1
        assert "RPL008" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys, tmp_path):
        assert lint_main([str(tmp_path / "absent.py")]) == 2

    def test_unknown_select_exits_two(self, capsys, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text(self.CLEAN)
        assert lint_main(["--select", "RPL999", str(target)]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL008" in out

    def test_python_dash_m_contract(self, tmp_path):
        """``python -m repro.lint`` exits nonzero on findings, zero when clean."""
        src_root = Path(repro.__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        clean = tmp_path / "clean.py"
        clean.write_text(self.CLEAN)

        run = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(dirty)],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 1
        assert "RPL008" in run.stdout

        run = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(clean)],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 0


class TestZooCommand:
    def test_prints_zoo_table(self, capsys):
        code = main(
            ["zoo", "--dataset", "mnist", "--zoo-seed", "55",
             "--n-train", "300", "--n-test", "300"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mnist zoo" in out
        assert "cnn-32" in out

    def test_quantized_variants_shown(self, capsys):
        code = main(
            ["zoo", "--dataset", "mnist", "--zoo-seed", "55",
             "--n-train", "300", "--n-test", "300", "--bits", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "int8 variants" in out
        assert "-int8" in out


class TestFaultsCommand:
    def test_template_round_trips_through_validate(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main(["faults", "template", "--output", str(plan_path)]) == 0
        assert main(["faults", "validate", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "6 spec(s), valid" in out
        assert "edge_outage" in out
        assert "trade_rejection" in out

    def test_template_prints_to_stdout(self, capsys):
        assert main(["faults", "template"]) == 0
        payload = capsys.readouterr().out
        from repro.faults import FaultPlan

        assert len(FaultPlan.from_json(payload)) == 6

    def test_malformed_plan_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"faults": [{"kind": "solar_flare"}]}', encoding="utf-8")
        with pytest.raises(ValueError, match="unknown fault kind"):
            main(["faults", "validate", str(bad)])

    def test_run_reports_fault_events(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        main(["faults", "template", "--output", str(plan_path)])
        capsys.readouterr()
        code = main(
            ["faults", "run", str(plan_path),
             "--edges", "2", "--horizon", "48", "--selection", "Greedy",
             "--trading", "LY"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Greedy-LY" in out
        assert "Fault events" in out
        assert "fault_injected" in out

    def test_faults_command_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])


class TestCacheCommand:
    def populate(self, tmp_path):
        from repro.experiments.cache import ResultCache, cell_key
        from repro.experiments.runner import run_combo
        from repro.sim import ScenarioConfig, build_scenario

        scenario = build_scenario(
            ScenarioConfig(dataset="synthetic", num_edges=2, horizon=12)
        )
        cache = ResultCache(tmp_path)
        for seed in range(2):
            cache.store(
                cell_key(scenario, "Greedy", "LY", seed),
                run_combo(scenario, "Greedy", "LY", seed),
            )
        return cache

    def test_prune_without_criteria_is_an_error(self, capsys, tmp_path):
        assert main(["cache", "prune", "--dir", str(tmp_path)]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_dry_run_reports_without_deleting(self, capsys, tmp_path):
        cache = self.populate(tmp_path)
        code = main(
            ["cache", "prune", "--dir", str(tmp_path),
             "--max-size-mb", "0", "--dry-run"]
        )
        assert code == 0
        assert "would remove 2" in capsys.readouterr().out
        assert len(cache) == 2

    def test_real_prune_deletes(self, capsys, tmp_path):
        cache = self.populate(tmp_path)
        code = main(["cache", "prune", "--dir", str(tmp_path), "--max-size-mb", "0"])
        assert code == 0
        assert "removed 2" in capsys.readouterr().out
        assert len(cache) == 0


class TestServeResume:
    @staticmethod
    def serve(*flags):
        return main(["serve", "--edges", "3", "--horizon", "16", *flags])

    @staticmethod
    def table_rows(out, *names):
        """Rows of the printed tables whose first cell is one of ``names``."""
        return [
            line.split()
            for line in out.splitlines()
            if line.split() and line.split()[0] in names
        ]

    def test_resume_refuses_flags_it_would_ignore(self, capsys, tmp_path):
        snap = tmp_path / "s.pkl"
        self.serve("--snapshot-every", "4", "--snapshot-path", str(snap),
                   "--max-slots", "4")
        capsys.readouterr()
        code = main([
            "serve", "--resume", str(snap),
            "--reconfig", "/nonexistent/plan.json",
            "--chaos", "/nonexistent/chaos.json",
            "--workers", "3",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "resuming" not in captured.out
        for flag in ("--reconfig", "--chaos", "--workers"):
            assert flag in captured.err

    def test_resume_continues_the_reconfig_plan_with_whole_run_books(
        self, capsys, tmp_path
    ):
        # The plan runs in-process, and the resumed run's served table and
        # counters equal the uninterrupted run's.
        plan = tmp_path / "readd.json"
        plan.write_text(
            '{"reconfig": [{"kind": "remove_edge", "at": 2, "edge": 1},'
            ' {"kind": "add_edge", "at": 8, "edge": 1}]}'
        )
        run = ("--ingress", "--reconfig", str(plan), "--snapshot-every", "4")
        assert self.serve(*run, "--snapshot-path", str(tmp_path / "f.pkl")) == 0
        full = capsys.readouterr().out
        snap = tmp_path / "s.pkl"
        assert self.serve(*run, "--snapshot-path", str(snap),
                          "--max-slots", "10") == 0
        assert main(["serve", "--resume", str(snap)]) == 0
        resumed = capsys.readouterr().out.split("resuming", 1)[1]
        names = ("events_in", "events_served", "events_dropped_offline",
                 "reconfigs", "slots_completed", "snapshots", "requests_in",
                 "deadline_hits", "deadline_misses", "total_cost")
        rows = self.table_rows(full, *names)
        assert len(rows) == len(names)
        assert self.table_rows(resumed, *names) == rows


class TestServeTraceLogs:
    def test_workers_a_rebalance_adds_write_their_own_logs(self, capsys, tmp_path):
        # One worker at first, three after the slot-8 rebalance: every
        # worker index writes ``LOG.shard<w>`` (a respawn ``.respawnN``), so
        # the replay of all the logs counts all 3 x 16 arrivals.
        plan = tmp_path / "rebalance.json"
        plan.write_text(
            '{"reconfig": [{"kind": "rebalance", "at": 8, "num_workers": 3}]}'
        )
        log = tmp_path / "tr.jsonl"
        assert main([
            "serve", "--edges", "3", "--horizon", "16", "--workers", "1",
            "--reconfig", str(plan), "--trace-output", str(log),
        ]) == 0
        shard_logs = sorted(p.name for p in tmp_path.glob("tr.jsonl.shard*"))
        assert shard_logs == [
            "tr.jsonl.shard0", "tr.jsonl.shard0.respawn1",
            "tr.jsonl.shard1", "tr.jsonl.shard2",
        ]
        capsys.readouterr()
        assert main([
            "trace", "--replay", str(log), *(str(tmp_path / n) for n in shard_logs)
        ]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row for row in rows if row[:1] == ["arrival"]] == [
            ["arrival", "|", "48"]
        ]


class TestExperimentFaultsPassthrough:
    def test_faults_reach_the_engine(self, tmp_path, monkeypatch):
        from repro.experiments import run_all

        plan_path = tmp_path / "plan.json"
        main(["faults", "template", "--output", str(plan_path)])

        captured = {}

        def spy_main(argv):
            args = run_all.build_parser().parse_args(argv)
            captured["engine"] = run_all.make_engine(args)

        monkeypatch.setattr("repro.experiments.run_all.main", spy_main)
        code = main(
            ["experiment", "fig03", "--no-cache", "--faults", str(plan_path)]
        )
        assert code == 0
        engine = captured["engine"]
        assert engine.faults is not None and len(engine.faults) == 6
        assert engine.cache is None
