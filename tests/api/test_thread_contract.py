"""One thread per engine: a call from another thread raises ``InterfaceError``.

The engine holds no locks.  Every entry of ``repro.api`` goes through
``Connection._check_open``, which compares the calling thread with the one
that created the engine, as ``sqlite3`` does with ``check_same_thread``.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Connection, InterfaceError, connect


@pytest.fixture
def conn(lanes_small):
    mod, _ = lanes_small
    connection = connect()
    connection.engine.load_mod("lanes", mod)
    return connection


def raised_in_thread(call) -> Exception | None:
    """Run ``call`` on a new thread; what it raised, or ``None``."""
    caught: list[Exception] = []

    def target() -> None:
        try:
            call()
        except Exception as exc:  # handed back to the test
            caught.append(exc)

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return caught[0] if caught else None


COUNT = "SELECT COUNT(*) FROM lanes"


# Each API entry, called on the connection and on a cursor, a prepared
# statement and a dataset that the owning thread created.
ENTRIES = {
    "Connection.cursor": lambda conn, cur, stmt, ds: conn.cursor(),
    "Connection.execute": lambda conn, cur, stmt, ds: conn.execute("SHOW DATASETS"),
    "Connection.executemany": lambda conn, cur, stmt, ds: conn.executemany(COUNT, [()]),
    "Connection.executescript": lambda conn, cur, stmt, ds: conn.executescript("SHOW DATASETS"),
    "Connection.prepare": lambda conn, cur, stmt, ds: conn.prepare("SHOW DATASETS"),
    "Connection.explain": lambda conn, cur, stmt, ds: conn.explain(COUNT),
    "Connection.verify": lambda conn, cur, stmt, ds: conn.verify(),
    "Connection.dataset": lambda conn, cur, stmt, ds: conn.dataset("lanes"),
    "Cursor.execute": lambda conn, cur, stmt, ds: cur.execute(COUNT),
    "Cursor.fetchone": lambda conn, cur, stmt, ds: cur.fetchone(),
    "Cursor.fetchmany": lambda conn, cur, stmt, ds: cur.fetchmany(),
    "Cursor.fetchall": lambda conn, cur, stmt, ds: cur.fetchall(),
    "PreparedStatement.execute": lambda conn, cur, stmt, ds: stmt.execute(),
    "PreparedStatement.explain": lambda conn, cur, stmt, ds: stmt.explain(),
    "Query.run": lambda conn, cur, stmt, ds: ds.count().run(),
    "Query.explain": lambda conn, cur, stmt, ds: ds.count().explain(),
    "Dataset.append": lambda conn, cur, stmt, ds: ds.append([]),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_an_entry_refuses_another_thread(conn, entry):
    expected = conn.execute(COUNT).fetchall()
    cursor, statement, dataset = conn.execute(COUNT), conn.prepare(COUNT), conn.dataset("lanes")
    exc = raised_in_thread(lambda: ENTRIES[entry](conn, cursor, statement, dataset))
    assert isinstance(exc, InterfaceError), exc
    assert "thread" in str(exc)

    # The refusal touched nothing: the owning thread carries on.
    assert cursor.fetchall() == expected
    assert statement.execute().fetchall() == expected
    assert dataset.count().run() == expected
    assert conn.execute("SHOW DATASETS").fetchall()


def test_a_second_connection_over_the_engine_refuses_another_thread(conn):
    same_thread = Connection(engine=conn.engine)
    exc = raised_in_thread(lambda: same_thread.execute("SHOW DATASETS"))
    assert isinstance(exc, InterfaceError)

    # Opened on the other thread over this engine: refused there too.
    exc = raised_in_thread(lambda: Connection(engine=conn.engine).execute("SHOW DATASETS"))
    assert isinstance(exc, InterfaceError)

    assert same_thread.execute("SHOW DATASETS").fetchall()


def test_each_thread_may_open_its_own_connection(lanes_small):
    mod, _ = lanes_small

    def own() -> None:
        with connect() as mine:
            mine.engine.load_mod("lanes", mod)
            assert mine.execute("SELECT COUNT(*) FROM lanes").fetchall()

    assert raised_in_thread(own) is None


def test_explain_refuses_a_closed_connection(conn):
    statement = conn.prepare(COUNT)
    query = conn.dataset("lanes").count()
    conn.close()
    for explain in (statement.explain, query.explain):
        with pytest.raises(InterfaceError, match="closed"):
            explain()
