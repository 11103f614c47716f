"""Docstring coverage enforcement (the pydocstyle-D1xx subset, stdlib-only).

Every *public* module, class, method and function in the modules listed
below must carry a docstring.  This is the dependency-free twin of the
ruff ``D1`` configuration in ``pyproject.toml`` (which CI also runs when
ruff is available); the AST walk keeps the rule enforced in every
environment the tests run in.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The modules the docs satellite pins (plus the new ingestion subsystem and
# the docs builder itself — the documentation tooling documents itself).
ENFORCED_MODULES = [
    "repro/analysis/__init__.py",
    "repro/analysis/base.py",
    "repro/analysis/determinism.py",
    "repro/analysis/driver.py",
    "repro/analysis/durability.py",
    "repro/analysis/exception_contracts.py",
    "repro/analysis/flow/__init__.py",
    "repro/analysis/flow/callgraph.py",
    "repro/analysis/flow/cfg.py",
    "repro/analysis/flow/lockset.py",
    "repro/analysis/flow/summaries.py",
    "repro/analysis/io_discipline.py",
    "repro/analysis/plan_purity.py",
    "repro/analysis/race.py",
    "repro/analysis/shm_hygiene.py",
    "repro/api.py",
    "repro/core/engine.py",
    "repro/core/ingest.py",
    "repro/core/parallel.py",
    "repro/core/session.py",
    "repro/datagen/profiles.py",
    "repro/docsgen.py",
    "repro/eval/quality.py",
    "repro/hermes/distances.py",
    "repro/hermes/frame.py",
    "repro/hermes/shm.py",
    "repro/qut/query.py",
    "repro/qut/retratree.py",
    "repro/storage/durable.py",
]


def _missing_docstrings(path: Path) -> list[str]:
    """Fully qualified names of public defs/classes lacking a docstring."""
    tree = ast.parse(path.read_text())
    missing: list[str] = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{path.name} (module)")

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                qual = f"{prefix}{name}"
                public = not name.startswith("_")
                if public and ast.get_docstring(child) is None:
                    missing.append(qual)
                # Recurse into classes (methods) but not into function bodies
                # (nested helpers are implementation detail).
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{qual}.")
    walk(tree, "")
    return missing


@pytest.mark.parametrize("module", ENFORCED_MODULES)
def test_public_symbols_have_docstrings(module):
    missing = _missing_docstrings(SRC / module)
    assert not missing, (
        f"{module}: public symbols without docstrings: {missing}; "
        "document them (the docs build renders these verbatim)"
    )
