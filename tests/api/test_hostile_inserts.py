"""Hostile ``INSERT`` input: out-of-order points and one-point keys.

Points of one key may arrive in any time order and are stored sorted by
time.  A key with a single distinct instant (an exact duplicate does not
make a second one) stays buffered: ``COUNT``, ``SELECT`` and ``SUMMARY`` do
not show it until a second distinct instant arrives.  Each write route —
one multi-row statement, ``executemany`` on a ``?`` template, and a
prepared statement executed once per row — and each read route, SQL or
fluent, gives the same rows.
"""

from __future__ import annotations

import pytest

from repro.api import connect

# (obj_id, traj_id, x, y, t), in arrival order.
ROWS = [
    ("a", "0", 3.0, 3.0, 30.0),
    ("a", "0", 1.0, 1.0, 10.0),
    ("solo", "0", 9.0, 9.0, 50.0),
    ("a", "0", 2.0, 2.0, 20.0),
    ("solo", "0", 9.0, 9.0, 50.0),  # an exact duplicate: still one instant
    ("b", "1", 5.0, 0.0, 7.0),
    ("b", "1", 4.0, 0.0, 2.0),
]
SOLO_SECOND_INSTANT = ("solo", "0", 8.0, 8.0, 40.0)
TEMPLATE = "INSERT INTO d VALUES (?, ?, ?, ?, ?)"


def _point(obj_id, traj_id, x, y, t):
    return {"obj_id": obj_id, "traj_id": traj_id, "x": x, "y": y, "t": t}


def _one_statement(conn, rows):
    values = ", ".join(f"('{o}', '{tr}', {x!r}, {y!r}, {t!r})" for o, tr, x, y, t in rows)
    conn.execute(f"INSERT INTO d VALUES {values}")


def _executemany(conn, rows):
    conn.executemany(TEMPLATE, rows)


def _prepared_per_row(conn, rows):
    statement = conn.prepare(TEMPLATE)
    for row in rows:
        statement.execute(row)


WRITERS = {
    "one_statement": _one_statement,
    "executemany": _executemany,
    "prepared_per_row": _prepared_per_row,
}


def _reads(conn):
    """Every read route's rows, SQL and fluent side by side."""
    sql = {
        "points": conn.execute("SELECT * FROM d").fetchall(),
        "count": conn.execute("SELECT COUNT(*) FROM d").fetchall(),
        "summary": conn.execute("SELECT SUMMARY(d)").fetchall(),
    }
    dataset = conn.dataset("d")
    fluent = {
        "points": dataset.points().run(),
        "count": dataset.count().run(),
        "summary": dataset.summary().run(),
    }
    assert fluent == sql
    return sql


def _written(writer):
    conn = connect()
    conn.execute("CREATE DATASET d")
    WRITERS[writer](conn, ROWS)
    return conn


@pytest.mark.parametrize("writer", list(WRITERS))
def test_out_of_order_points_are_stored_in_time_order(writer):
    reads = _reads(_written(writer))
    assert reads["points"] == [
        _point("a", "0", 1.0, 1.0, 10.0),
        _point("a", "0", 2.0, 2.0, 20.0),
        _point("a", "0", 3.0, 3.0, 30.0),
        _point("b", "1", 4.0, 0.0, 2.0),
        _point("b", "1", 5.0, 0.0, 7.0),
    ]


@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_one_point_key_stays_buffered_until_a_second_instant(writer):
    conn = _written(writer)
    reads = _reads(conn)
    assert all(row["obj_id"] != "solo" for row in reads["points"])
    assert reads["count"] == [{"count": 5}]
    summary = reads["summary"][0]
    assert (summary["trajectories"], summary["objects"], summary["points"]) == (2, 2, 5)
    assert summary["tmax"] == 30.0

    WRITERS[writer](conn, [SOLO_SECOND_INSTANT])
    reads = _reads(conn)
    assert [row for row in reads["points"] if row["obj_id"] == "solo"] == [
        _point("solo", "0", 8.0, 8.0, 40.0),
        _point("solo", "0", 9.0, 9.0, 50.0),
    ]
    assert reads["count"] == [{"count": 7}]
    summary = reads["summary"][0]
    assert (summary["trajectories"], summary["objects"], summary["points"]) == (3, 3, 7)
    assert summary["tmax"] == 50.0


def test_every_write_route_gives_equal_rows():
    before = [_reads(_written(writer)) for writer in WRITERS]
    assert all(reads == before[0] for reads in before)
    after = []
    for writer in WRITERS:
        conn = _written(writer)
        WRITERS[writer](conn, [SOLO_SECOND_INSTANT])
        after.append(_reads(conn))
    assert all(reads == after[0] for reads in after)
