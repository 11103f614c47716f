"""Every line of ``tests/pins.txt`` names a test that exists.

The registry lists the tests that hold a contract (see its header).  The
ids resolve statically: the file must exist, each ``::`` part must name a
class, and the last part a class or a function in the one before it
(a ``[parameter]`` suffix is allowed).  Nothing is collected twice.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "pins.txt"


def pinned_ids(text: str) -> list[str]:
    """The node ids in a registry's text: its non-blank, non-``#`` lines."""
    return [line.strip() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def names_a_test(node_id: str) -> bool:
    """Whether ``node_id`` names a test file, class or function of this repository."""
    path, *parts = node_id.split("::")
    file = ROOT / path
    if not file.is_file():
        return False
    node: ast.AST = ast.parse(file.read_text())
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        name = part.split("[", 1)[0] if last else part
        kinds = (ast.ClassDef, ast.FunctionDef) if last else (ast.ClassDef,)
        found = [c for c in ast.iter_child_nodes(node) if isinstance(c, kinds) and c.name == name]
        if not found:
            return False
        node = found[0]
    return True


def test_every_pin_names_a_test():
    ids = pinned_ids(PINS.read_text())
    assert ids, "tests/pins.txt lists no test"
    assert [node_id for node_id in ids if not names_a_test(node_id)] == []


@pytest.mark.parametrize(
    "node_id",
    [
        "tests/storage/test_no_such_file.py",
        "tests/storage/test_fsck.py::TestNoSuchClass",
        "tests/storage/test_fsck.py::TestCli::test_no_such_function",
        "tests/storage/test_fsck.py::test_cli_clean_exit_zero",
        "tests/storage/test_fsck.py::build_store::x",
    ],
)
def test_a_pin_naming_a_missing_test_fails(node_id):
    assert pinned_ids(f"# a block\n{node_id}\n") == [node_id]
    assert not names_a_test(node_id)


def test_a_parametrised_suffix_names_its_function():
    assert names_a_test("tests/core/test_crash_sweep.py::test_crash_sweep[append]")
