"""Smoke tests: the shipped examples must run end to end.

Only the fast examples execute here (the fleet-scaling and quantization
studies train zoos / run sweeps and are exercised manually).
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_examples_directory_complete(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "carbon_market_study.py",
            "edge_fleet_scaling.py",
            "custom_policy.py",
            "quantized_model_control.py",
        } <= names

    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "total cost" in out
        assert "Offline optimum" in out
        assert "neutrality gap" in out

    def test_custom_policy(self, capsys):
        out = run_example("custom_policy.py", capsys)
        assert "Ours (paper)" in out
        assert "ETC" in out

    @pytest.mark.skipif(sys.platform == "win32", reason="path handling")
    def test_examples_have_module_docstrings(self):
        for path in EXAMPLES.glob("*.py"):
            first = path.read_text().lstrip()
            assert first.startswith('"""'), f"{path.name} lacks a docstring"
