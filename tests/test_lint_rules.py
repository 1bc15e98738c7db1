"""Per-rule fixture tests for the reprolint rule engine.

Every rule is exercised three ways: a snippet that must trigger it, a
clean rewrite that must not, and the triggering snippet silenced by an
inline ``# noqa: RPLxxx``.  The text reporter's output contract is pinned
at the end.
"""

import pytest

from repro.lint import lint_source
from repro.lint.engine import Finding, collect_noqa
from repro.lint.reporters import render_text

# (rule code, virtual path, triggering snippet, clean snippet).  Each case
# carries a fixed id, so adding or removing a case never renames the others.
RULE_CASES = [
    pytest.param(
        "RPL001",
        "repro/sim/module.py",
        "import numpy as np\nx = np.random.rand(3)\n",
        "def draw(rng):\n    return rng.random(3)\n",
        id="RPL001-0",
    ),
    pytest.param(
        "RPL001",
        "repro/sim/module.py",
        "import random\nrandom.seed(0)\n",
        "import secrets\ntoken = secrets.token_hex(4)\n",
        id="RPL001-1",
    ),
    pytest.param(
        "RPL002",
        "repro/sim/module.py",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(1234)\n",
        id="RPL002-2",
    ),
    pytest.param(
        "RPL003",
        "repro/nn/module.py",
        "def is_zero(x):\n    return x == 0.0\n",
        "def is_zero(x):\n    return abs(x) < 1e-12\n",
        id="RPL003-3",
    ),
    pytest.param(
        "RPL008",
        "repro/sim/module.py",
        "import time\nstamp = time.time()\n",
        "import time\nelapsed = time.perf_counter()\n",
        id="RPL008-10",
    ),
    pytest.param(
        "RPL009",
        "repro/sim/module.py",
        "try:\n    x = 1\nexcept Exception:\n    pass\n",
        "try:\n    x = 1\nexcept ValueError:\n    raise\n",
        id="RPL009-11",
    ),
    pytest.param(
        "RPL012",
        "repro/serve/module.py",
        "import time\n"
        "async def worker():\n"
        "    time.sleep(0.1)\n",
        "import asyncio\n"
        "async def worker():\n"
        "    await asyncio.sleep(0.1)\n",
        id="RPL012-15",
    ),
    pytest.param(
        "RPL012",
        "repro/serve/module.py",
        # Transitive: the async def never blocks directly, but calls a sync
        # helper that does — invisible to a rule that only scans call names
        # inside the coroutine.
        "import time\n"
        "def persist():\n"
        "    time.sleep(0.1)\n"
        "async def coordinate():\n"
        "    persist()\n",
        "import asyncio\n"
        "import time\n"
        "def persist():\n"
        "    time.sleep(0.1)\n"
        "async def coordinate():\n"
        "    await asyncio.to_thread(persist)\n",
        id="RPL012-16",
    ),
    pytest.param(
        "RPL012",
        "repro/serve/module.py",
        "async def snapshot(path, state):\n"
        "    path.write_text(state)\n",
        "import asyncio\n"
        "async def snapshot(path, state):\n"
        "    await asyncio.to_thread(path.write_text, state)\n",
        id="RPL012-17",
    ),
    pytest.param(
        "RPL013",
        "repro/serve/module.py",
        "import asyncio\n"
        "async def launch(coro):\n"
        "    asyncio.create_task(coro)\n",
        "import asyncio\n"
        "async def launch(coro):\n"
        "    task = asyncio.create_task(coro)\n"
        "    await task\n",
        id="RPL013-18",
    ),
    pytest.param(
        "RPL015",
        "repro/sim/module.py",
        "import numpy as np\n"
        "rng = np.random.default_rng(7)\n",
        "from repro.utils.rng import spawn_generator\n"
        "rng = spawn_generator(7, 'workload')\n",
        id="RPL015-20",
    ),
    pytest.param(
        "RPL015",
        "repro/sim/module.py",
        "from numpy.random import Generator, PCG64\n"
        "rng = Generator(PCG64(3))\n",
        "from repro.utils.rng import RngFactory\n"
        "rng = RngFactory(seed=3).get('faults')\n",
        id="RPL015-21",
    ),
    pytest.param(
        "RPL016",
        "repro/faults/module.py",
        "class Injector:\n"
        "    def __init__(self, rng):\n"
        "        self._rng = rng\n"
        "    def apply(self, t):\n"
        "        return self._rng.random() < 0.5\n",
        "class Injector:\n"
        "    def __init__(self, rng, horizon):\n"
        "        self._mask = rng.random(horizon) < 0.5\n"
        "    def apply(self, t):\n"
        "        return self._mask[t]\n",
        id="RPL016-22",
    ),
]


@pytest.mark.parametrize("code,path,bad,good", RULE_CASES)
class TestRuleFixtures:
    def test_flags_violation(self, code, path, bad, good):
        findings = lint_source(bad, path=path, select=[code])
        assert findings, f"{code} missed its fixture violation"
        assert {f.code for f in findings} == {code}

    def test_clean_code_passes(self, code, path, bad, good):
        assert lint_source(good, path=path, select=[code]) == []

    def test_noqa_suppresses(self, code, path, bad, good):
        findings = lint_source(bad, path=path, select=[code])
        lines = bad.splitlines()
        for line_no in sorted({f.line for f in findings}, reverse=True):
            lines[line_no - 1] += f"  # noqa: {code} -- fixture suppression"
        silenced = "\n".join(lines) + "\n"
        assert lint_source(silenced, path=path, select=[code]) == []


class TestSuppressionMachinery:
    def test_blanket_noqa_suppresses_everything(self):
        src = "import time\nstamp = time.time()  # noqa\n"
        assert lint_source(src, path="repro/sim/module.py") == []

    def test_noqa_for_other_code_does_not_suppress(self):
        src = "import time\nstamp = time.time()  # noqa: RPL003\n"
        findings = lint_source(src, path="repro/sim/module.py")
        assert [f.code for f in findings] == ["RPL008"]

    def test_skip_file_directive(self):
        src = "# reprolint: skip-file\nimport time\nstamp = time.time()\n"
        assert lint_source(src, path="repro/sim/module.py") == []

    def test_collect_noqa_parses_codes_and_reasons(self):
        suppressions, skip = collect_noqa(
            "x = 1  # noqa: RPL001, RPL003 -- reason text\n"
        )
        assert not skip
        assert suppressions[1] == frozenset({"RPL001", "RPL003"})


class TestEngineContracts:
    def test_syntax_error_becomes_rpl000_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert len(findings) == 1
        assert findings[0].code == "RPL000"

    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="unknown rule codes"):
            lint_source("x = 1\n", select=["RPL999"])

    def test_finding_render_format(self):
        finding = Finding(path="a.py", line=3, col=4, code="RPL001", message="msg")
        assert finding.render() == "a.py:3:4: RPL001 msg"

    def test_findings_sorted_by_location(self):
        src = "import time\na = time.time()\nb = 0.0\nc = b == 0.0\nd = time.time()\n"
        findings = lint_source(src, path="repro/sim/module.py")
        assert [f.line for f in findings] == sorted(f.line for f in findings)


class TestReporters:
    def _sample_findings(self):
        src = "import time\nstamp = time.time()\n"
        return lint_source(src, path="repro/sim/module.py")

    def test_text_reporter_mentions_counts(self):
        report = render_text(self._sample_findings(), checked_files=1)
        assert "RPL008" in report
        assert "1 finding(s) in 1 file(s)" in report

    def test_text_reporter_clean_summary(self):
        assert render_text([], checked_files=4) == "reprolint: 0 findings in 4 file(s)"
