"""Non-finite samples are refused at every way into a dataset.

A NaN or infinite ``x`` / ``y`` / ``t`` used to build a trajectory silently
and flow on into S2T.  Every entry point now fails loudly before anything
moves: the dataset, its generation and the SQL point buffer stay as they
were, and the next valid statement behaves as if the bad one never ran.

A ``LIMIT`` row count is refused alike, with ``SQLExecutionError``, unless
it is a non-negative integral number: ``nan`` and ``inf`` used to escape as
a bare ``ValueError`` / ``OverflowError``, ``2.7`` to cut to 2 rows and
``True`` to mean 1.
"""

import math

import pytest

import repro
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.sql.errors import SQLExecutionError
from tests.conftest import make_linear_trajectory

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.fixture
def conn():
    connection = repro.connect()
    connection.engine.load_mod(
        "d", MOD(name="d", trajectories=[make_linear_trajectory(f"o{i}") for i in range(3)])
    )
    yield connection
    connection.close()


def state(conn) -> tuple:
    engine = conn.engine
    return engine.get_mod("d").keys(), engine.dataset_generation("d")


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("column", [2, 3, 4])
def test_insert_refuses_a_bound_non_finite_value(conn, bad, column):
    before = state(conn)
    values = ["new", "0", 1.0, 2.0, 3.0]
    values[column] = bad
    with pytest.raises(SQLExecutionError, match="must be finite"):
        conn.execute("INSERT INTO d VALUES (?, ?, ?, ?, ?)", values)
    assert state(conn) == before
    # Nothing of the refused row was buffered: one more point does not
    # complete a trajectory out of it.
    conn.execute("INSERT INTO d VALUES (?, ?, ?, ?, ?)", ["new", "0", 1.0, 2.0, 4.0])
    assert state(conn) == before


def test_insert_refuses_a_nan_string_literal(conn):
    before = state(conn)
    with pytest.raises(SQLExecutionError, match="must be finite"):
        conn.execute("INSERT INTO d VALUES ('new', '0', 'nan', 0, 1), ('new', '0', 1, 1, 2)")
    assert state(conn) == before


@pytest.mark.parametrize("bad", NON_FINITE)
def test_load_mod_never_sees_the_trajectory(conn, bad):
    before = state(conn)
    with pytest.raises(ValueError, match=r"\('bad', '0'\): x, y, t must be finite"):
        conn.engine.load_mod(
            "d", MOD(name="d", trajectories=[Trajectory("bad", "0", [0, bad], [0, 1], [0, 1])])
        )
    assert state(conn) == before


@pytest.mark.parametrize("bad", NON_FINITE)
def test_fluent_append_of_a_batch_holding_one_is_all_or_nothing(conn, bad):
    before = state(conn)

    def batch():
        yield make_linear_trajectory("fine", "0")
        yield Trajectory("bad", "0", [0.0, 1.0, 2.0], [0.0, bad, 2.0], [0.0, 1.0, 2.0])

    with pytest.raises(ValueError, match="must be finite"):
        conn.dataset("d").append(batch())
    assert state(conn) == before


def test_csv_with_a_nan_sample_does_not_load(conn, tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("obj_id,traj_id,x,y,t\na,0,0,0,0\na,0,nan,1,1\na,0,2,2,2\n")
    before = state(conn)
    with pytest.raises(ValueError, match="must be finite"):
        conn.dataset("d").load(path).run()
    assert state(conn) == before


HOSTILE_LIMITS = [math.nan, math.inf, -math.inf, 2.7, True, -1, "2"]

# The three ways a row count reaches the executor's LIMIT; each returns the rows.
LIMITED = {
    "execute": lambda conn, n: conn.execute("SELECT * FROM d LIMIT ?", [n]).fetchall(),
    "prepared": lambda conn, n: conn.prepare("SELECT * FROM d LIMIT :n").execute({"n": n}).fetchall(),
    "points": lambda conn, n: conn.dataset("d").points(limit=n).run(),
}


@pytest.mark.parametrize("entry", LIMITED)
@pytest.mark.parametrize("bad", HOSTILE_LIMITS)
def test_limit_refuses_anything_but_a_non_negative_integer(conn, bad, entry):
    with pytest.raises(SQLExecutionError, match="LIMIT must be a non-negative integer"):
        LIMITED[entry](conn, bad)


@pytest.mark.parametrize("entry", LIMITED)
def test_integral_limits_still_count_rows(conn, entry):
    total = conn.engine.get_mod("d").total_points
    assert len(LIMITED[entry](conn, 2.0)) == 2
    assert len(LIMITED[entry](conn, 0)) == 0
    assert len(LIMITED[entry](conn, total + 5)) == total


def test_a_literal_limit_is_checked_alike(conn):
    assert len(conn.execute("SELECT * FROM d LIMIT 2").fetchall()) == 2
    with pytest.raises(SQLExecutionError, match="LIMIT must be a non-negative integer"):
        conn.execute("SELECT * FROM d LIMIT 2.5")
