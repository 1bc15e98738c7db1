"""ProjectContext unit tests plus cross-module rule demonstrations.

The second half is the point of the project-level pass: for each of
RPL012/RPL015 a two-file synthetic package seeds a violation that a
per-file run (``lint_source`` on the offending file alone) provably cannot
see, while ``lint_paths`` over the package catches it through the shared
import/symbol index.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.project import (
    ProjectContext,
    build_module,
    build_project,
    module_name_candidates,
)


def write_package(root, files):
    """Materialize ``{relative path: source}`` under ``root``; return paths."""
    paths = {}
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        paths[rel] = target
    return paths


class TestModuleNaming:
    def test_candidates_are_dotted_suffixes_shortest_first(self):
        assert module_name_candidates("src/repro/serve/runtime.py") == [
            "runtime",
            "serve.runtime",
            "repro.serve.runtime",
            "src.repro.serve.runtime",
        ]

    def test_init_identifies_its_package(self):
        candidates = module_name_candidates("src/repro/obs/__init__.py")
        assert candidates[0] == "obs"
        assert "repro.obs" in candidates

    def test_bare_filename(self):
        assert module_name_candidates("conf.py") == ["conf"]


class TestProjectContext:
    def test_resolve_module_by_suffix(self, tmp_path):
        paths = write_package(
            tmp_path,
            {
                "pkg/alpha.py": "X = 1\n",
                "pkg/beta.py": "Y = 2\n",
            },
        )
        project = build_project(paths.values())
        assert project.resolve_module("pkg.alpha") is not None
        assert project.resolve_module("pkg.alpha").path.endswith("alpha.py")
        assert project.resolve_module("pkg.nope") is None

    def test_ambiguous_suffix_requires_longer_name(self, tmp_path):
        paths = write_package(
            tmp_path,
            {
                "left/utils.py": "A = 1\n",
                "right/utils.py": "B = 2\n",
            },
        )
        project = build_project(paths.values())
        # Two sibling ``utils`` modules: the bare stem is ambiguous and
        # resolves to neither; the qualified suffix picks each out.
        assert project.resolve_module("utils") is None
        assert project.resolve_module("left.utils").path.endswith("left/utils.py")
        assert project.resolve_module("right.utils").path.endswith("right/utils.py")

    def test_resolve_function_follows_reexport_chain(self, tmp_path):
        paths = write_package(
            tmp_path,
            {
                "pkg/core.py": "def helper():\n    return 1\n",
                "pkg/api.py": "from pkg.core import helper\n",
                "pkg/user.py": "from pkg.api import helper\n",
            },
        )
        project = build_project(paths.values())
        user = project.resolve_module("pkg.user")
        resolved = project.resolve_function(user, "helper")
        assert resolved is not None
        assert resolved.module.name == "pkg.core"
        assert resolved.qualname == "helper"
        assert resolved.node.name == "helper"

    def test_resolve_function_none_for_external_names(self, tmp_path):
        paths = write_package(
            tmp_path, {"pkg/user.py": "import numpy as np\n"}
        )
        project = build_project(paths.values())
        user = project.resolve_module("pkg.user")
        assert project.resolve_function(user, "np.load") is None
        assert project.resolve_function(user, "undefined_name") is None

    def test_broken_file_is_skipped_not_fatal(self, tmp_path):
        paths = write_package(
            tmp_path,
            {
                "pkg/good.py": "def f():\n    return 1\n",
                "pkg/bad.py": "def broken(:\n",
            },
        )
        project = build_project(paths.values())
        assert project.resolve_module("pkg.good") is not None
        assert project.resolve_module("pkg.bad") is None

    def test_build_module_indexes_methods(self):
        source = (
            "class C:\n"
            "    def m(self):\n"
            "        return 1\n"
        )
        import ast

        module = build_module("pkg/mod.py", ast.parse(source))
        assert module.class_method("C", "m") is not None
        assert module.class_method("C", "absent") is None
        assert isinstance(ProjectContext([module]), ProjectContext)


class TestCrossModuleDetection:
    """Each rule catches a violation only the project pass can see."""

    def test_rpl012_blocking_reached_through_imported_helper(self, tmp_path):
        files = {
            "pkg/storage.py": """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
            "pkg/runtime.py": """\
                from pkg.storage import save

                async def coordinate(path):
                    save(path, "state")
                """,
        }
        paths = write_package(tmp_path, files)
        findings = lint_paths([tmp_path])
        rpl012 = [f for f in findings if f.code == "RPL012"]
        assert len(rpl012) == 1
        assert rpl012[0].path.endswith("runtime.py")
        assert "save" in rpl012[0].message

        # The same file linted alone cannot resolve ``save`` and stays
        # silent — the finding exists only because of the project index.
        solo = lint_source(
            paths["pkg/runtime.py"].read_text(), path=str(paths["pkg/runtime.py"])
        )
        assert [f for f in solo if f.code == "RPL012"] == []

    def test_rpl015_raw_generator_behind_reexport_alias(self, tmp_path):
        files = {
            "pkg/streams.py": """\
                from numpy.random import default_rng as make_stream
                """,
            "pkg/sim.py": """\
                from pkg.streams import make_stream

                rng = make_stream(7)
                """,
        }
        paths = write_package(tmp_path, files)
        findings = lint_paths([tmp_path])
        rpl015 = [f for f in findings if f.code == "RPL015"]
        assert len(rpl015) == 1
        assert rpl015[0].path.endswith("sim.py")
        assert "numpy.random.default_rng" in rpl015[0].message

        solo = lint_source(
            paths["pkg/sim.py"].read_text(), path=str(paths["pkg/sim.py"])
        )
        assert [f for f in solo if f.code == "RPL015"] == []

    def test_clean_package_stays_clean_under_project_pass(self, tmp_path):
        files = {
            "pkg/storage.py": """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
            "pkg/runtime.py": """\
                import asyncio

                from pkg.storage import save

                async def coordinate(path):
                    await asyncio.to_thread(save, path, "state")
                """,
        }
        write_package(tmp_path, files)
        assert lint_paths([tmp_path]) == []

    def test_noqa_still_suppresses_project_findings(self, tmp_path):
        files = {
            "pkg/storage.py": """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
            "pkg/runtime.py": """\
                from pkg.storage import save

                async def coordinate(path):
                    save(path, "state")  # noqa: RPL012 -- fixture suppression
                """,
        }
        write_package(tmp_path, files)
        assert [f for f in lint_paths([tmp_path]) if f.code == "RPL012"] == []
