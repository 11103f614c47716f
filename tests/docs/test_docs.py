"""The documentation's three checks: docstrings, the SQL dialect page, links.

* **Docstrings.**  Every public module, class, method and function in
  :data:`DOCUMENTED` carries a docstring (pydocstyle's D100-D103, walked
  with :mod:`ast` so it holds wherever the tests run).  The walk recurses
  into every class, private ones included, so a private class's public
  methods count; it does not enter function bodies, whose nested helpers
  are implementation detail.
* **SQL dialect.**  ``docs/sql-dialect.md`` names every statement form the
  parser accepts, every registered table function
  (:data:`repro.sql.functions.FUNCTIONS`), both parameter-binding forms and
  every error class of :mod:`repro.sql.errors`.
* **Links.**  Every relative ``.md`` link in a page under ``docs/`` names a
  file that exists.

Each check is a function of what it reads, so the tests at the end show it
bites: a deleted docstring, an undocumented table function, a dead link.
"""

from __future__ import annotations

import ast
import re
import shutil
from pathlib import Path

import pytest

from repro.sql import errors as sql_errors
from repro.sql.functions import FUNCTIONS

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DOCS = ROOT / "docs"

# The public API (``repro.connect``, ``repro.api``, the engine, the frame and
# ReTraTree, the ingestion and session layers, the parameter objects, the
# error classes), the storage layer's contract modules and the lint package.
DOCUMENTED = [
    "repro/__init__.py",
    "repro/analysis/__init__.py",
    "repro/analysis/__main__.py",
    "repro/analysis/base.py",
    "repro/analysis/determinism.py",
    "repro/analysis/driver.py",
    "repro/analysis/durability.py",
    "repro/analysis/exception_contracts.py",
    "repro/analysis/flow/__init__.py",
    "repro/analysis/flow/callgraph.py",
    "repro/analysis/flow/cfg.py",
    "repro/analysis/flow/summaries.py",
    "repro/analysis/io_discipline.py",
    "repro/analysis/plan_purity.py",
    "repro/analysis/shm_hygiene.py",
    "repro/api.py",
    "repro/core/engine.py",
    "repro/core/ingest.py",
    "repro/core/parallel.py",
    "repro/core/session.py",
    "repro/datagen/profiles.py",
    "repro/eval/quality.py",
    "repro/hermes/distances.py",
    "repro/hermes/frame.py",
    "repro/hermes/mod.py",
    "repro/hermes/shm.py",
    "repro/qut/params.py",
    "repro/qut/query.py",
    "repro/qut/retratree.py",
    "repro/s2t/params.py",
    "repro/sql/errors.py",
    "repro/storage/durable.py",
    "repro/storage/errors.py",
    "repro/storage/faults.py",
    "repro/storage/fsck.py",
]

# Statement forms the parser accepts, and the two parameter-binding forms.
SQL_STATEMENTS = [
    "SHOW DATASETS",
    "CREATE DATASET",
    "DROP DATASET",
    "LOAD DATASET",
    "INSERT INTO",
    "SELECT COUNT(*)",
    "SELECT",
    "ORDER BY",
    "LIMIT",
    "WHERE",
    "EXPLAIN",
]
SQL_BINDINGS = [":name", "?"]

_LINK = re.compile(r"\]\(([^)#\s]+\.md)(?:#[^)]*)?\)")


def missing_docstrings(tree: ast.Module) -> list[str]:
    """Qualified names of the public defs and classes in ``tree`` lacking a docstring."""
    missing = [] if ast.get_docstring(tree) is not None else ["(module)"]

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                if not child.name.startswith("_") and ast.get_docstring(child) is None:
                    missing.append(qualname)
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{qualname}.")

    walk(tree, "")
    return missing


def undocumented_sql_terms(page: str) -> list[str]:
    """The statements, table functions, binding forms and error classes ``page`` does not name."""
    errors = [name for name in sql_errors.__all__ if not name.startswith("format")]
    terms = SQL_STATEMENTS + sorted(FUNCTIONS) + SQL_BINDINGS + errors
    return [term for term in terms if term not in page]


def broken_links(docs: Path) -> list[str]:
    """``page: target`` for every relative ``.md`` link under ``docs`` naming no file."""
    broken = []
    for page in sorted(docs.rglob("*.md")):
        for match in _LINK.finditer(page.read_text()):
            target = match.group(1)
            if "://" not in target and not (page.parent / target).is_file():
                broken.append(f"{page.relative_to(docs)}: {target}")
    return broken


def _parse(module: str) -> ast.Module:
    return ast.parse((SRC / module).read_text())


@pytest.mark.parametrize("module", DOCUMENTED)
def test_public_symbols_have_docstrings(module):
    missing = missing_docstrings(_parse(module))
    assert not missing, f"{module}: public symbols without docstrings: {missing}"


def test_sql_dialect_documents_every_term():
    missing = undocumented_sql_terms((DOCS / "sql-dialect.md").read_text())
    assert not missing, f"docs/sql-dialect.md does not document {missing}"


def test_internal_links_resolve():
    assert broken_links(DOCS) == []


# -- the checks bite -----------------------------------------------------------


def _drop_docstring(tree: ast.Module, qualname: str) -> None:
    """Delete the docstring of the def or class ``qualname`` in ``tree``."""
    node: ast.AST = tree
    for name in qualname.split("."):
        node = next(
            child
            for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and child.name == name
        )
    assert ast.get_docstring(node) is not None, f"{qualname} has no docstring to delete"
    node.body[0] = ast.Pass()


@pytest.mark.parametrize(
    "module, qualname",
    [
        ("repro/api.py", "Dataset.s2t"),
        ("repro/qut/retratree.py", "ReTraTree.subchunks_overlapping"),
        ("repro/__init__.py", "connect"),
        ("repro/storage/fsck.py", "fsck_store"),
    ],
)
def test_a_deleted_docstring_is_reported(module, qualname):
    tree = _parse(module)
    _drop_docstring(tree, qualname)
    assert missing_docstrings(tree) == [qualname]


def test_an_undocumented_table_function_is_reported(monkeypatch):
    monkeypatch.setitem(FUNCTIONS, "FROBNICATE", lambda engine, args: [])
    assert undocumented_sql_terms((DOCS / "sql-dialect.md").read_text()) == ["FROBNICATE"]


def test_a_dead_link_is_reported(tmp_path):
    docs = tmp_path / "docs"
    shutil.copytree(DOCS, docs)
    page = docs / "ingestion.md"
    page.write_text(page.read_text() + "\nSee [nowhere](nowhere.md).\n")
    assert broken_links(docs) == ["ingestion.md: nowhere.md"]
