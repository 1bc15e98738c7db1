"""Self-test of the benchmark at smoke sizes.

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.5", *args],
        capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict[tuple[str, int], dict]:
    """Each workload's full record, untraced and traced, at seed 0."""
    out = {}
    tmp = tmp_path_factory.mktemp("records")
    for name in WORKLOADS:
        for trace in (0, 1):
            path = tmp / f"{name}-{trace}.json"
            proc = run("--workload", name, "--seed", "0", "--trace", str(trace),
                       "--json", str(path))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            record = json.loads(path.read_text())
            assert json.loads(proc.stdout.splitlines()[-1]) == {
                key: record[key] for key in ("correct", "attempted", "failed", "metrics")
            }
            out[name, trace] = record
    return out


def test_names_match_benchmark_json(records):
    from workloads import WORKLOADS as defined

    assert list(defined) == WORKLOADS
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in WORKLOADS:
            metrics = records[name, trace]["metrics"]
            assert {k: m["unit"] for k, m in metrics.items()} == expected


def test_traced_and_untraced_digests_are_equal(records):
    for name in WORKLOADS:
        untraced = set(records[name, 0]["digests"])
        traced = set(records[name, 1]["digests"])
        assert len(untraced) == 1 and traced == untraced, name


def test_layer_rows_and_residual_add_up_to_wall(records):
    for name in WORKLOADS:
        processes = records[name, 1]["processes"]
        assert [p["role"] for p in processes][0] == "parent"
        assert len(processes) == (1 if name.startswith("sim") else 2)
        for proc in processes:
            wall, rows = proc["wall_s"], sum(proc["rows"].values())
            assert rows <= 1.02 * wall, (name, proc["role"])
            assert abs(rows + proc["residual_s"] - wall) <= 0.02 * wall


def test_corrupted_pinned_digest_fails_every_operation(tmp_path):
    pinned = json.loads((HERE / "digests.json").read_text())
    pinned["smoke"]["sim-vectorized"]["0"] = "0" * 64
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(pinned))
    proc = run("--workload", "sim-vectorized", "--seed", "0", "--pinned", str(path))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def report(values: list[float]) -> dict:
    runs = [
        {"seed": seed, "failed": 0, "metrics": {"edge_slots_per_s": {"value": v}}}
        for seed, v in enumerate(values)
    ]
    return {"workloads": {"w": {"runs": runs}}}


def test_compare_verdicts_and_claims():
    spec = {"better": "higher", "bound": 0.1}
    base = [100.0 + i for i in range(10)]
    assert compare.verdict(base, base, spec)[0] == "ok"
    assert compare.verdict(base, [0.8 * v for v in base], spec)[0] == "regressed"
    assert compare.verdict(base, [v * (1 + 0.3 * (i % 2)) for i, v in enumerate(base)],
                           spec)[0] == "unresolved"
    specs = {"edge_slots_per_s": spec}
    faster = report([1.2 * v for v in base])
    assert compare.check_claim(report(base), faster, "w:edge_slots_per_s", specs)[0]
    assert not compare.check_claim(faster, report(base), "w:edge_slots_per_s", specs)[0]
