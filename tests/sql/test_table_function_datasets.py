"""Table functions on unknown and empty datasets: typed errors and empty answers.

An unknown dataset is a runtime error of a well-formed statement, so every
table function refuses it with :class:`SQLExecutionError` — the executor's
``unknown dataset`` message, as ``COUNT`` / ``INSERT`` give — whether it
arrives as SQL, as a prepared statement or through the fluent
``Dataset.call``.  An empty dataset (just created, or holding only buffered
``INSERT`` points) is answered: ``SUMMARY`` with zero counts and ``None``
bounds; ``S2T``, ``QUT`` (any window) and the three baselines with one empty
``outliers`` row; ``HOLDING_PATTERNS`` and ``CLUSTER_HISTOGRAM`` (over the
empty dataset's clustering) with no rows.
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.sql.errors import SQLExecutionError

CALLS = [
    ("S2T", ()),
    ("QUT", (0, 10)),
    ("SUMMARY", ()),
    ("TRACLUS", ()),
    ("TOPTICS", ()),
    ("CONVOY", ()),
    ("CLUSTER_HISTOGRAM", ()),
    ("HOLDING_PATTERNS", ()),
]


def _sql(function: str, args: tuple, dataset: str) -> str:
    return f"SELECT {function}({', '.join([dataset, *map(str, args)])})"


@pytest.mark.parametrize(("function", "args"), CALLS, ids=[name for name, _ in CALLS])
class TestUnknownDataset:
    def test_sql(self, function, args):
        with pytest.raises(SQLExecutionError, match="unknown dataset 'nope'"):
            connect().execute(_sql(function, args, "nope"))

    def test_prepared(self, function, args):
        stmt = connect().prepare(_sql(function, args, ":d"))
        with pytest.raises(SQLExecutionError, match="unknown dataset 'nope'"):
            stmt.execute({"d": "nope"})

    def test_fluent(self, function, args):
        with pytest.raises(SQLExecutionError, match="unknown dataset 'nope'"):
            connect().dataset("nope").call(function, *args).run()


EMPTY_SUMMARY = {
    "dataset": "z",
    "trajectories": 0,
    "objects": 0,
    "points": 0,
    **dict.fromkeys(("tmin", "tmax", "xmin", "xmax", "ymin", "ymax")),
}
EMPTY_S2T = [
    {
        "cluster_id": "outliers",
        "members": 0,
        "objects": 0,
        "tmin": "-",
        "tmax": "-",
        "representative_obj": "-",
    }
]


@pytest.mark.parametrize(
    "inserts", [[], ["INSERT INTO z VALUES ('a', '0', 0, 0, 0)"]], ids=["created", "one_point"]
)
class TestEmptyDataset:
    def test_summary_has_zero_counts_and_no_bounds(self, inserts):
        conn = connect()
        conn.execute("CREATE DATASET z")
        for statement in inserts:
            conn.execute(statement)
        assert conn.execute("SELECT SUMMARY(z)").fetchall() == [EMPTY_SUMMARY]
        assert conn.dataset("z").summary().run() == [EMPTY_SUMMARY]

    def test_s2t_answers_one_empty_outliers_row(self, inserts):
        conn = connect()
        conn.execute("CREATE DATASET z")
        for statement in inserts:
            conn.execute(statement)
        assert conn.execute("SELECT S2T(z)").fetchall() == EMPTY_S2T
        assert conn.dataset("z").call("S2T").run() == EMPTY_S2T


# (function, args, answer) on an empty dataset.  CLUSTER_HISTOGRAM reads the
# dataset's last clustering, so its case runs ``S2T`` first.
EMPTY_ANSWERS = [
    ("QUT", (0, 10), EMPTY_S2T),
    ("TRACLUS", (), EMPTY_S2T),
    ("TOPTICS", (), EMPTY_S2T),
    ("CONVOY", (), EMPTY_S2T),
    ("HOLDING_PATTERNS", (), []),
    ("CLUSTER_HISTOGRAM", (), []),
]


def _empty_connection(inserts: list[str], function: str):
    conn = connect()
    conn.execute("CREATE DATASET z")
    for statement in inserts:
        conn.execute(statement)
    if function == "CLUSTER_HISTOGRAM":
        conn.execute("SELECT S2T(z)")
    return conn


@pytest.mark.parametrize(
    "inserts", [[], ["INSERT INTO z VALUES ('a', '0', 0, 0, 0)"]], ids=["created", "one_point"]
)
@pytest.mark.parametrize(
    ("function", "args", "answer"), EMPTY_ANSWERS, ids=[name for name, _, _ in EMPTY_ANSWERS]
)
class TestEmptyDatasetAnswers:
    def test_sql(self, inserts, function, args, answer):
        conn = _empty_connection(inserts, function)
        assert conn.execute(_sql(function, args, "z")).fetchall() == answer

    def test_prepared(self, inserts, function, args, answer):
        conn = _empty_connection(inserts, function)
        stmt = conn.prepare(_sql(function, args, ":d"))
        assert stmt.execute({"d": "z"}).fetchall() == answer

    def test_fluent(self, inserts, function, args, answer):
        conn = _empty_connection(inserts, function)
        assert conn.dataset("z").call(function, *args).run() == answer


def test_cluster_histogram_before_any_clustering_is_a_typed_error():
    conn = connect()
    conn.execute("CREATE DATASET z")
    with pytest.raises(SQLExecutionError, match="no clustering has been run on dataset 'z'"):
        conn.execute("SELECT CLUSTER_HISTOGRAM(z)")
