"""Every ``def`` and ``class`` under ``src/repro`` has a caller.

A definition counts as called when its name appears as a name or an
attribute somewhere in ``src/``, ``examples/`` or ``benchmarks/`` outside
its own body, or when ``pyproject.toml`` names it as a console script.
Import statements, ``__all__``, docstrings and comments are not calls: only
the name and attribute nodes of the parsed code count.  The match is by
bare name, so a definition sharing its name with a called one passes; the
check finds code that nothing reaches, not every unused overload.

Dunders and the ``visit_*`` methods that ``ast.NodeVisitor`` dispatches to
are exempt.  Everything else without a caller is listed in ``ALLOWED`` with
the reason it stays, and the check fails when a listed name gains a caller
or no longer exists, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import functools
import textwrap
import tomllib
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# "<module path under src/repro>:<dotted definition path>" -> why it stays without a caller.
ALLOWED: dict[str, str] = {
    "api:Connection.executescript": "public API: runs a script of statements on one connection",
    "api:Cursor.description": "public API: DB-API column metadata of the last result",
    "core/engine:HermesEngine.export_csv": "public API: writes a dataset back out as CSV",
    "s2t/result:ClusteringResult.cluster_by_id": "public API: looks up one cluster of a result",
    "storage/faults:FaultInjector.disarm": "the storage layer's test fake: stops injecting faults",
    "storage/faults:FaultInjector.fail_next": "the storage layer's test fake: fails the next matching call",
    "index/rtree3d:RTree3D.check_invariants": "the R-tree's structural self-check, run by its tests",
    "storage/buffer_pool:BufferPoolStats.logical_reads": "buffer-pool statistic: every page request, hit or miss",
    "s2t/segmentation:dp_segmentation": "the one-signal DP that the batched segmentation is pinned against",
    "va/report:clustering_report": "the paper's VA report view, outside this reproduction's scope",
    "va/maps:export_geojson": "the paper's VA map view, outside this reproduction's scope",
    "hermes/types:Period.expand": "reference arithmetic of the QuT oracle (tests/qut/oracles.py)",
    "hermes/mod:MOD.temporal_range": "the per-trajectory range query the frame slicing properties are pinned against",
    "hermes/trajectory:Trajectory.split_at_indices": "the segmentation oracle's splitter (tests/s2t/oracles.py)",
    "storage/heapfile:HeapFile.delete": "heap-file primitive the heap tests use to leave dead slots that scans must skip",
}


def _parse(path: Path, cache: dict[Path, ast.Module]) -> ast.Module:
    if path not in cache:
        cache[path] = ast.parse(path.read_text(), filename=str(path))
    return cache[path]


def definitions(root: Path, cache: dict[Path, ast.Module]) -> list[tuple[str, str, Path, int, int]]:
    """``(qualified name, name, file, first line, last line)`` per ``def``/``class`` of the package."""
    package = root / "src" / "repro"
    found = []

    def walk(node: ast.AST, module: str, path: Path, prefix: str, visitor: bool) -> None:
        # Only statements hold definitions, so expressions are not descended into.
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case)):
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, path, prefix, visitor)
                continue
            name = child.name
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and not (visitor and name.startswith("visit_")):
                found.append((f"{module}:{prefix}{name}", name, path, child.lineno, child.end_lineno))
            is_visitor = isinstance(child, ast.ClassDef) and any(
                ast.unparse(base).rsplit(".", 1)[-1] == "NodeVisitor" for base in child.bases
            )
            walk(child, module, path, f"{prefix}{name}.", is_visitor)

    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()
        walk(_parse(path, cache), module, path, "", False)
    return found


def references(root: Path, cache: dict[Path, ast.Module]) -> dict[str, list[tuple[Path, int]]]:
    """Every name and attribute use under ``src/``, ``examples/`` and ``benchmarks/``."""
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for tree in ("src", "examples", "benchmarks"):
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(_parse(path, cache)):
                if isinstance(node, ast.Name):
                    uses[node.id].append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    uses[node.attr].append((path, node.end_lineno))
    return uses


@functools.cache
def survey(root: Path = ROOT) -> tuple[set[str], list[str]]:
    """Qualified names of the package's definitions, and of those that nothing outside their own body names."""
    cache: dict[Path, ast.Module] = {}
    uses = references(root, cache)
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    entry_points = {target.rsplit(":", 1)[-1] for target in scripts.values()}
    found = definitions(root, cache)
    uncalled = [
        qualified
        for qualified, name, path, first, last in found
        if name not in entry_points
        and all(p == path and first <= line <= last for p, line in uses.get(name, ()))
    ]
    return {qualified for qualified, *_ in found}, uncalled


def unexplained(root: Path = ROOT, allowed: dict[str, str] = ALLOWED) -> list[str]:
    """Definitions without a caller that ``allowed`` does not list."""
    _, uncalled = survey(root)
    return sorted(set(uncalled) - set(allowed))


def stale(root: Path = ROOT, allowed: dict[str, str] = ALLOWED) -> tuple[list[str], list[str]]:
    """Listed names that no longer exist, and listed names that gained a caller."""
    existing, uncalled = survey(root)
    return sorted(set(allowed) - existing), sorted(set(allowed) & existing - set(uncalled))


def test_every_definition_has_a_caller():
    dead = unexplained()
    assert not dead, "no caller in src/, examples/ or benchmarks/: " + ", ".join(dead)


def test_every_allowed_name_exists_and_has_no_caller():
    gone, called = stale()
    assert not gone, "allowed names that no longer exist: " + ", ".join(gone)
    assert not called, "allowed names that gained a caller: " + ", ".join(called)


def test_imports_all_docstrings_and_recursion_are_not_callers(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        '"""Mentions dead() in a docstring."""\n'
        "from repro.m import dead\n"
        '__all__ = ["dead", "used"]\n'
        "def dead():\n"
        "    return dead()\n"
        "def used():\n"
        "    pass\n"
        "def main():\n"
        "    used()\n"
        "class V(ast.NodeVisitor):\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def visit_Call(self, node):\n"
        "        pass\n"
    )
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\nm = "repro.m:main"\n')
    assert survey(tmp_path)[1] == ["m:dead", "m:V"]


def make_tree(root: Path, files: dict[str, str], scripts: str = "") -> Path:
    """A miniature checkout: ``files`` by path under ``root``, and a ``pyproject.toml``."""
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    (root / "pyproject.toml").write_text(f"[project.scripts]\n{scripts}")
    return root


def test_a_method_called_through_an_attribute_has_a_caller(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": """
                class C:
                    def run(self):
                        pass
                def main():
                    C().run()
            """
        },
        'm = "repro.m:main"\n',
    )
    assert survey(root)[1] == []


@pytest.mark.parametrize("tree", ["examples", "benchmarks"])
def test_a_use_in_examples_or_benchmarks_is_a_caller(tmp_path, tree):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": "def helper():\n    pass\n",
            f"{tree}/demo/x.py": "from repro.m import helper\nhelper()\n",
        },
    )
    assert survey(root)[1] == []


def test_a_use_under_tests_is_not_a_caller(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": "def helper():\n    pass\n",
            "tests/test_m.py": "from repro.m import helper\nhelper()\n",
        },
    )
    assert survey(root)[1] == ["m:helper"]


def test_comments_and_string_literals_are_not_callers(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": """
                def helper():
                    pass
                # helper() runs elsewhere
                NAME = "helper"
                CALL = getattr(object, "helper", None)
            """
        },
    )
    assert survey(root)[1] == ["m:helper"]


def test_visit_methods_are_exempt_only_on_a_node_visitor(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": """
                from ast import NodeVisitor
                class Walker(NodeVisitor):
                    def visit_Name(self, node):
                        pass
                class Plain:
                    def visit_Name(self, node):
                        pass
                WALKERS = [Walker(), Plain()]
            """
        },
    )
    assert survey(root)[1] == ["m:Plain.visit_Name"]


def test_a_nested_helper_called_by_its_enclosing_function_has_a_caller(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": """
                def main():
                    def step():
                        pass
                    step()
            """
        },
        'm = "repro.m:main"\n',
    )
    assert survey(root)[1] == []


def test_a_method_that_only_calls_itself_has_no_caller(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": """
                class C:
                    def again(self, n):
                        return self.again(n - 1) if n else 0
                INSTANCE = C()
            """
        },
    )
    assert survey(root)[1] == ["m:C.again"]


def test_definitions_under_if_and_try_are_found(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": """
                import sys
                if sys.platform:
                    def a():
                        pass
                try:
                    def b():
                        pass
                except ImportError:
                    def b():
                        pass
            """
        },
    )
    assert survey(root)[1] == ["m:a", "m:b", "m:b"]


def test_a_same_named_use_anywhere_counts(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "src/repro/m.py": "def close():\n    pass\n",
            "src/repro/n.py": "def shut(f):\n    f.close()\nshut(None)\n",
        },
    )
    assert survey(root)[1] == []


def test_an_unlisted_definition_without_a_caller_fails_until_it_is_listed(tmp_path):
    root = make_tree(tmp_path, {"src/repro/m.py": "def dead():\n    pass\n"})
    assert unexplained(root, {}) == ["m:dead"]
    assert unexplained(root, {"m:dead": "kept on purpose"}) == []
    assert stale(root, {"m:dead": "kept on purpose"}) == ([], [])


def test_a_listed_name_that_gains_a_caller_is_stale(tmp_path):
    root = make_tree(
        tmp_path,
        {"src/repro/m.py": "def kept():\n    pass\nkept()\n"},
    )
    assert stale(root, {"m:kept": "kept on purpose"}) == ([], ["m:kept"])


def test_a_listed_name_that_no_longer_exists_is_stale(tmp_path):
    root = make_tree(tmp_path, {"src/repro/m.py": "X = 1\n"})
    assert stale(root, {"m:gone": "kept on purpose"}) == (["m:gone"], [])
