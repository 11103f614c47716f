"""Public API v1: connections, cursors, parameter binding, lifecycle."""

import pytest

import repro
from repro.api import Connection, InterfaceError, connect
from repro.core.engine import HermesEngine
from repro.sql.errors import SQLBindError, SQLParseError


@pytest.fixture
def conn(lanes_small):
    mod, _ = lanes_small
    connection = connect()
    connection.engine.load_mod("lanes", mod)
    return connection


class TestConnect:
    def test_memory_connection(self):
        connection = repro.connect()
        assert connection.engine.storage_directory is None
        assert connection.engine.datasets() == []

    def test_disk_connection(self, tmp_path, lanes_small):
        mod, _ = lanes_small
        with repro.connect(tmp_path / "store") as connection:
            connection.engine.load_mod("lanes", mod)
            assert connection.engine.is_persisted("lanes")
        # A second connection recovers the catalogued dataset.
        with repro.connect(tmp_path / "store") as cold:
            assert cold.engine.datasets() == ["lanes"]

    def test_close_rejects_further_use(self, conn):
        conn.close()
        with pytest.raises(InterfaceError, match="closed"):
            conn.cursor()
        with pytest.raises(InterfaceError, match="closed"):
            conn.execute("SHOW DATASETS")

    def test_context_manager_closes(self, lanes_small):
        with connect() as connection:
            assert not connection.closed
        assert connection.closed

    def test_shared_engine_connections_share_insert_buffers(self, conn):
        second = Connection(engine=conn.engine)
        conn.execute("CREATE DATASET shared")
        second.execute("INSERT INTO shared VALUES ('a', '0', 0, 0, 0)")
        # One point is buffered (no trajectory yet); the first connection's
        # next INSERT must extend the same buffer, not restart it.
        conn.execute("INSERT INTO shared VALUES ('a', '0', 1, 1, 10)")
        rows = conn.execute("SELECT COUNT(*) FROM shared").fetchall()
        assert rows == [{"count": 2}]


class TestCursorFetch:
    def test_fetchone_and_exhaustion(self, conn):
        cur = conn.execute("SELECT obj_id FROM lanes LIMIT 2")
        assert cur.fetchone() is not None
        assert cur.fetchone() is not None
        assert cur.fetchone() is None
        assert cur.rowcount == 2

    def test_fetchmany_pages_and_default_arraysize(self, conn, lanes_small):
        mod, _ = lanes_small
        cur = conn.execute("SELECT obj_id, t FROM lanes")
        cur.arraysize = 100
        pages = []
        while page := cur.fetchmany():
            pages.append(len(page))
        assert sum(pages) == mod.total_points
        assert all(size <= 100 for size in pages)

    def test_fetchall_matches_legacy_rows(self, conn):
        legacy = conn.engine.plan_executor()
        from repro.sql.planner import plan_sql

        expected = list(legacy.execute(plan_sql("SELECT obj_id, t FROM lanes ORDER BY t")))
        assert conn.execute("SELECT obj_id, t FROM lanes ORDER BY t").fetchall() == expected

    def test_streaming_buffer_is_bounded(self, conn, lanes_small):
        mod, _ = lanes_small
        cur = conn.execute("SELECT obj_id, t FROM lanes")
        total = 0
        while page := cur.fetchmany(50):
            total += len(page)
        assert total == mod.total_points
        assert cur.max_buffered <= 50  # never the whole relation

    def test_iteration_protocol(self, conn):
        rows = list(conn.execute("SELECT obj_id FROM lanes LIMIT 5"))
        assert len(rows) == 5

    def test_description_from_plan_projection(self, conn):
        cur = conn.execute("SELECT obj_id, t FROM lanes LIMIT 1")
        assert [d[0] for d in cur.description] == ["obj_id", "t"]

    def test_description_derived_from_first_row_without_consuming(self, conn):
        cur = conn.execute("SELECT SUMMARY(lanes)")
        assert "trajectories" in [d[0] for d in cur.description]
        assert cur.fetchone()["dataset"] == "lanes"

    def test_closed_cursor_rejected(self, conn):
        cur = conn.execute("SELECT obj_id FROM lanes")
        cur.close()
        with pytest.raises(InterfaceError, match="cursor is closed"):
            cur.fetchone()

    def test_fetch_before_execute_rejected(self, conn):
        with pytest.raises(InterfaceError, match="no statement"):
            conn.cursor().fetchone()

    def test_unbound_parameters_rejected_at_execute(self, conn):
        with pytest.raises(SQLBindError, match="unbound"):
            conn.execute("SELECT S2T(lanes, :sigma)")

    def test_parse_error_carries_position(self, conn):
        with pytest.raises(SQLParseError, match="line 1, col"):
            conn.execute("SELECT obj_id FRM lanes")

    def test_explain_executes_with_unbound_placeholders(self, conn):
        rows = conn.execute("EXPLAIN SELECT QUT(lanes, :wi, :we)").fetchall()
        assert ":wi" in rows[0]["plan"] and ":we" in rows[0]["plan"]

    def test_explain_with_bindings_renders_bound_plan(self, conn):
        rows = conn.execute(
            "EXPLAIN SELECT QUT(lanes, :wi, :we)", {"wi": 0.0, "we": 9.0}
        ).fetchall()
        assert "wi=0.0" in rows[0]["plan"]


class TestConcurrentCursors:
    def test_two_cursors_interleave_fetchmany_over_different_datasets(
        self, conn, flights_small
    ):
        mod, _ = flights_small
        conn.engine.load_mod("flights", mod)
        a = conn.execute("SELECT obj_id, t FROM lanes")
        b = conn.execute("SELECT obj_id, t FROM flights")
        merged_a, merged_b = [], []
        while True:
            page_a = a.fetchmany(40)
            page_b = b.fetchmany(40)
            merged_a.extend(page_a)
            merged_b.extend(page_b)
            if not page_a and not page_b:
                break
        assert merged_a == conn.execute("SELECT obj_id, t FROM lanes").fetchall()
        assert merged_b == conn.execute("SELECT obj_id, t FROM flights").fetchall()
        assert a.max_buffered <= 40 and b.max_buffered <= 40

    def test_open_cursor_survives_dataset_replacement(self, conn, lanes_small):
        """Rows already streaming keep coming from the captured snapshot."""
        mod, _ = lanes_small
        cur = conn.execute("SELECT obj_id FROM lanes")
        first = cur.fetchmany(3)
        conn.engine.load_mod("lanes", mod)  # replacement mid-stream
        rest = cur.fetchall()
        assert len(first) + len(rest) == mod.total_points


class TestExecuteMany:
    def test_executemany_named(self, conn):
        conn.execute("CREATE DATASET probes")
        cur = conn.executemany(
            "INSERT INTO probes VALUES (:o, '0', :x, :y, :t)",
            [
                {"o": "bus", "x": 0.0, "y": 0.0, "t": 0.0},
                {"o": "bus", "x": 1.0, "y": 1.0, "t": 10.0},
                {"o": "bus", "x": 2.0, "y": 2.0, "t": 20.0},
            ],
        )
        assert cur.rowcount == 3
        assert conn.engine.get_mod("probes").get(("bus", "0")).num_points == 3

    def test_executemany_positional(self, conn):
        conn.execute("CREATE DATASET pos")
        cur = conn.executemany(
            "INSERT INTO pos VALUES (?, ?, ?, ?, ?)",
            [("a", "0", 0.0, 0.0, 0.0), ("a", "0", 1.0, 1.0, 10.0)],
        )
        assert cur.rowcount == 2

    def test_executemany_insert_materialises_once(self, conn):
        """The INSERT collapse: one multi-row insert, one generation bump."""
        conn.execute("CREATE DATASET bulk")
        before = conn.engine.dataset_generation("bulk")
        conn.executemany(
            "INSERT INTO bulk VALUES (?, ?, ?, ?, ?)",
            [("a", "0", float(i), 0.0, float(i) * 10) for i in range(8)],
        )
        assert conn.engine.dataset_generation("bulk") == before + 1
        assert conn.engine.get_mod("bulk").get(("a", "0")).num_points == 8

    def test_limit_accepts_parameter(self, conn):
        rows = conn.execute(
            "SELECT obj_id FROM lanes LIMIT :n", {"n": 4}
        ).fetchall()
        assert len(rows) == 4

    def test_negative_bound_limit_rejected(self, conn):
        from repro.sql.errors import SQLExecutionError

        with pytest.raises(SQLExecutionError, match="non-negative"):
            conn.execute("SELECT obj_id FROM lanes LIMIT :n", {"n": -1})

    def test_incomparable_bound_predicate_raises_sql_error(self, conn):
        from repro.sql.errors import SQLExecutionError

        cur = conn.execute("SELECT obj_id FROM lanes WHERE t >= :t0", {"t0": "abc"})
        with pytest.raises(SQLExecutionError, match="cannot compare"):
            cur.fetchmany(5)

    def test_fluent_predicate_typos_raise_sql_error_at_execute(self, conn):
        from repro.sql.errors import SQLExecutionError

        with pytest.raises(SQLExecutionError, match="unknown predicate column"):
            conn.dataset("lanes").points(where=[("bogus", "=", 1)]).run()
        with pytest.raises(SQLExecutionError, match="unknown operator"):
            conn.dataset("lanes").points(where=[("x", "~", 1)]).run()
        with pytest.raises(SQLExecutionError, match="unknown predicate column"):
            conn.dataset("lanes").count(where=[("bogus", "=", 1)]).run()

    def test_failed_insert_leaves_no_phantom_rows(self, conn):
        from repro.sql.errors import SQLExecutionError

        conn.execute("CREATE DATASET atomic")
        with pytest.raises(SQLExecutionError, match="numeric"):
            conn.executemany(
                "INSERT INTO atomic VALUES (:o, '0', :x, :y, :t)",
                [
                    {"o": "a", "x": 0.0, "y": 0.0, "t": 0.0},
                    {"o": "a", "x": 1.0, "y": 1.0, "t": 10.0},
                    {"o": "a", "x": "oops", "y": 2.0, "t": 20.0},
                ],
            )
        assert conn.execute("SELECT COUNT(*) FROM atomic").fetchall() == [{"count": 0}]
        # The failed batch's good rows must not resurface on the next INSERT.
        conn.execute("INSERT INTO atomic VALUES ('b','0',0,0,0), ('b','0',1,1,1)")
        rows = conn.execute("SELECT obj_id FROM atomic").fetchall()
        assert {row["obj_id"] for row in rows} == {"b"}

    def test_execute_insert_rowcount_matches_inserted_rows(self, conn):
        conn.execute("CREATE DATASET many")
        cur = conn.execute(
            "INSERT INTO many VALUES ('a','0',0,0,0), ('a','0',1,1,1), "
            "('a','0',2,2,2), ('a','0',3,3,3)"
        )
        assert cur.rowcount == 4  # rows landed, not the one status row
        assert cur.fetchall() == [{"inserted": 4}]
        assert cur.rowcount == 4

    def test_fetchall_keeps_executemany_rowcount(self, conn):
        conn.execute("CREATE DATASET keep")
        cur = conn.executemany(
            "INSERT INTO keep VALUES (?, ?, ?, ?, ?)",
            [("a", "0", 0.0, 0.0, 0.0), ("a", "0", 1.0, 1.0, 10.0)],
        )
        assert cur.fetchall() == []  # harmless DB-API idiom
        assert cur.rowcount == 2


class TestExecuteScript:
    def test_script_yields_per_statement_results(self, conn):
        results = list(
            conn.executescript(
                "CREATE DATASET s; INSERT INTO s VALUES ('a','0',0,0,0),('a','0',1,1,1); SHOW DATASETS;"
            )
        )
        assert [len(r) for r in results] == [1, 1, 2]

    def test_script_is_lazy(self, conn):
        script = conn.executescript("CREATE DATASET lazy; SHOW DATASETS;")
        assert "lazy" not in conn.engine.datasets()
        next(script)
        assert "lazy" in conn.engine.datasets()

    def test_script_stops_at_connection_close(self, conn):
        script = conn.executescript("CREATE DATASET one; CREATE DATASET two;")
        next(script)
        conn.close()
        with pytest.raises(InterfaceError, match="closed"):
            next(script)
        assert "two" not in conn.engine.datasets()


class TestSessionOverConnection:
    def test_progressive_session_rides_connection(self, conn, lanes_small):
        from repro.core import ProgressiveSession
        from repro.hermes.types import Period

        mod, _ = lanes_small
        session = ProgressiveSession.over(conn, "lanes")
        assert session.engine is conn.engine
        assert session.connection is conn
        period = mod.period
        result = session.query(Period(period.tmin, period.tmax))
        assert result.num_clusters >= 0
        assert len(session.history) == 1

    def test_constructor_accepts_connection_positionally(self, conn):
        from repro.core import ProgressiveSession

        session = ProgressiveSession(conn, "lanes")
        assert isinstance(session.engine, HermesEngine)
