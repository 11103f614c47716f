"""Table functions on unknown and empty datasets: typed errors and empty answers.

An unknown dataset is a runtime error of a well-formed statement, so every
table function refuses it with :class:`SQLExecutionError` — the executor's
``unknown dataset`` message, as ``COUNT`` / ``INSERT`` give — whether it
arrives as SQL, as a prepared statement or through the fluent
``Dataset.call``.  An empty dataset (just created, or holding only buffered
``INSERT`` points) is answered: ``SUMMARY`` with zero counts and ``None``
bounds, ``S2T`` with one empty ``outliers`` row.
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
