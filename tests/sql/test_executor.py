"""Integration tests for SQL execution against a live engine, through ``repro.api``."""

import re

import pytest

from repro.api import Connection
from repro.core.engine import HermesEngine
from repro.hermes.io import write_csv
from repro.sql.errors import SQLExecutionError
from repro.sql.functions import FUNCTIONS
from repro.sql.plan import SIGNATURES


@pytest.fixture
def engine(lanes_small):
    mod, _ = lanes_small
    engine = HermesEngine.in_memory()
    engine.load_mod("lanes", mod)
    return engine


@pytest.fixture
def conn(engine):
    return Connection(engine=engine)


@pytest.fixture
def execute(conn):
    """One statement in, its materialised rows out."""
    return lambda sql, params=None: conn.execute(sql, params).fetchall()


class TestDDL:
    def test_show_datasets(self, execute):
        assert execute("SHOW DATASETS") == [{"dataset": "lanes"}]

    def test_create_and_drop(self, execute):
        assert execute("CREATE DATASET fresh") == [{"created": "fresh"}]
        assert {"dataset": "fresh"} in execute("SHOW DATASETS")
        assert execute("DROP DATASET fresh") == [{"dropped": "fresh"}]
        assert {"dataset": "fresh"} not in execute("SHOW DATASETS")

    def test_create_duplicate_rejected(self, execute):
        execute("CREATE DATASET dup")
        with pytest.raises(SQLExecutionError):
            execute("CREATE DATASET dup")

    def test_drop_unknown_rejected(self, execute):
        with pytest.raises(SQLExecutionError):
            execute("DROP DATASET ghost")

    def test_load_dataset_from_csv(self, execute, engine, tmp_path, lanes_small):
        mod, _ = lanes_small
        path = tmp_path / "lanes.csv"
        write_csv(mod, path)
        rows = execute(f"LOAD DATASET copy FROM '{path}'")
        assert rows == [{"dataset": "copy", "trajectories": len(mod)}]
        assert "copy" in engine.datasets()


class TestInsertAndPointQueries:
    def test_insert_builds_trajectories(self, execute, engine):
        execute("CREATE DATASET probes")
        execute(
            "INSERT INTO probes VALUES ('bus', '0', 0, 0, 0), ('bus', '0', 1, 1, 10), "
            "('bus', '0', 2, 2, 20)"
        )
        assert len(engine.get_mod("probes")) == 1
        assert engine.get_mod("probes").get(("bus", "0")).num_points == 3

    def test_insert_extends_existing_dataset(self, execute, engine):
        execute("CREATE DATASET probes")
        execute("INSERT INTO probes VALUES ('bus', '0', 0, 0, 0), ('bus', '0', 1, 1, 10)")
        execute("INSERT INTO probes VALUES ('bus', '0', 2, 2, 20)")
        assert engine.get_mod("probes").get(("bus", "0")).num_points == 3

    def test_insert_wrong_arity_rejected(self, execute):
        execute("CREATE DATASET probes")
        with pytest.raises(SQLExecutionError, match="obj_id, traj_id, x, y, t"):
            execute("INSERT INTO probes VALUES ('bus', 0, 0)")

    def test_two_positions_at_one_instant_are_refused(self, execute, conn, engine):
        execute("CREATE DATASET probes")
        execute("INSERT INTO probes VALUES ('bus', '0', 0, 0, 0), ('bus', '0', 1, 1, 10)")
        execute("INSERT INTO probes VALUES ('car', '0', 0, 0, 0)")
        buffer = dict(conn.engine.plan_executor()._buffers["probes"].pending)
        summary = execute("SELECT SUMMARY(probes)")
        refusals = [
            # within one statement, a key new to the dataset
            "INSERT INTO probes VALUES ('van', '0', 0, 0, 5), ('van', '0', 3, 3, 5)",
            # against a point buffered by an earlier statement
            "INSERT INTO probes VALUES ('car', '0', 7, 7, 0), ('car', '0', 1, 1, 10)",
            # against a sample of a stored trajectory (the rebuild path)
            "INSERT INTO probes VALUES ('bus', '0', 5, 5, 10)",
        ]
        for sql in refusals:
            with pytest.raises(SQLExecutionError, match=r"INSERT refused.*two positions at t="):
                execute(sql)
            assert execute("SELECT SUMMARY(probes)") == summary
            assert conn.engine.plan_executor()._buffers["probes"].pending == buffer
        assert engine.get_mod("probes").get(("bus", "0")).num_points == 2

    def test_exact_duplicate_point_is_an_idempotent_drop(self, execute, engine):
        execute("CREATE DATASET probes")
        execute("INSERT INTO probes VALUES ('bus', '0', 0, 0, 0), ('bus', '0', 0, 0, 0), ('bus', '0', 1, 1, 10)")
        execute("INSERT INTO probes VALUES ('bus', '0', 1, 1, 10)")
        assert engine.get_mod("probes").get(("bus", "0")).num_points == 2

    def test_insert_into_unknown_dataset(self, execute):
        with pytest.raises(SQLExecutionError):
            execute("INSERT INTO ghost VALUES ('a', '0', 0, 0, 0)")

    def test_count_star(self, execute, lanes_small):
        mod, _ = lanes_small
        rows = execute("SELECT COUNT(*) FROM lanes")
        assert rows == [{"count": mod.total_points}]

    def test_count_with_predicate(self, execute, lanes_small):
        mod, _ = lanes_small
        midpoint = (mod.period.tmin + mod.period.tmax) / 2
        rows = execute(f"SELECT COUNT(*) FROM lanes WHERE t >= {midpoint}")
        assert 0 < rows[0]["count"] < mod.total_points

    def test_select_columns_with_limit_and_order(self, execute):
        rows = execute("SELECT obj_id, t FROM lanes ORDER BY t DESC LIMIT 5")
        assert len(rows) == 5
        assert set(rows[0]) == {"obj_id", "t"}
        ts = [row["t"] for row in rows]
        assert ts == sorted(ts, reverse=True)

    def test_select_star(self, execute):
        rows = execute("SELECT * FROM lanes LIMIT 3")
        assert set(rows[0]) == {"obj_id", "traj_id", "x", "y", "t"}

    def test_select_where_equality(self, execute, lanes_small):
        mod, _ = lanes_small
        some_obj = mod.trajectories()[0].obj_id
        rows = execute(f"SELECT obj_id FROM lanes WHERE obj_id = '{some_obj}'")
        assert rows and all(row["obj_id"] == some_obj for row in rows)

    def test_select_unknown_dataset(self, execute):
        with pytest.raises(SQLExecutionError):
            execute("SELECT x FROM ghost")

    def test_execute_script_runs_multiple_statements(self, conn):
        results = list(
            conn.executescript(
                "CREATE DATASET s; INSERT INTO s VALUES ('a','0',0,0,0),('a','0',1,1,1); SHOW DATASETS;"
            )
        )
        assert len(results) == 3

    def test_execute_script_is_lazy(self, conn, engine):
        """Statements run as the generator advances, one result set at a time."""
        script = conn.executescript("CREATE DATASET lazy; SHOW DATASETS;")
        assert "lazy" not in engine.datasets()  # nothing ran yet
        assert next(script) == [{"created": "lazy"}]
        assert "lazy" in engine.datasets()
        assert {"dataset": "lazy"} in next(script)

    def test_execute_script_semicolon_inside_string(self, conn, engine):
        """Token-aware splitting: ';' in a string literal is data."""
        results = list(
            conn.executescript(
                "CREATE DATASET semi; "
                "INSERT INTO semi VALUES ('a;b', '0', 0, 0, 0), ('a;b', '0', 1, 1, 1)"
            )
        )
        assert results[1] == [{"inserted": 2}]
        assert engine.get_mod("semi").get(("a;b", "0")).num_points == 2

    def test_execute_with_named_params(self, execute, lanes_small):
        mod, _ = lanes_small
        midpoint = (mod.period.tmin + mod.period.tmax) / 2
        direct = execute(f"SELECT COUNT(*) FROM lanes WHERE t >= {midpoint}")
        bound = execute(
            "SELECT COUNT(*) FROM lanes WHERE t >= :t0", {"t0": midpoint}
        )
        assert bound == direct

    def test_execute_with_positional_params(self, execute):
        rows = execute(
            "SELECT obj_id FROM lanes WHERE t BETWEEN ? AND ? LIMIT 3", [0.0, 1e9]
        )
        assert len(rows) == 3

    def test_explain_statement_returns_plan_rows(self, execute):
        rows = execute("EXPLAIN SELECT S2T(lanes)")
        assert rows[0]["plan"].startswith("S2T(D='lanes', sigma=NULL,")
        assert any(line["plan"].startswith("artifacts[lanes]") for line in rows)


class TestClusteringFunctions:
    def test_summary(self, execute, lanes_small):
        mod, _ = lanes_small
        rows = execute("SELECT SUMMARY(lanes)")
        assert rows[0]["trajectories"] == len(mod)

    def test_s2t_rows_shape(self, execute):
        rows = execute("SELECT S2T(lanes)")
        assert rows[-1]["cluster_id"] == "outliers"
        assert all({"cluster_id", "members", "objects"} <= set(row) for row in rows)
        assert len(rows) >= 2

    def test_qut_full_signature(self, execute, lanes_small):
        mod, _ = lanes_small
        period = mod.period
        tau = period.duration / 4
        rows = execute(
            f"SELECT QUT(lanes, {period.tmin}, {period.tmax}, {tau}, {tau / 4}, 0, 5, 2)"
        )
        assert rows[-1]["cluster_id"] == "outliers"

    def test_qut_requires_window(self, execute):
        with pytest.raises(SQLExecutionError, match="window"):
            execute("SELECT QUT(lanes)")

    def test_cluster_histogram_requires_prior_run(self, execute, engine):
        engine.load_mod("untouched", engine.get_mod("lanes"))
        with pytest.raises(SQLExecutionError):
            execute("SELECT CLUSTER_HISTOGRAM(untouched)")

    def test_cluster_histogram_after_s2t(self, execute):
        execute("SELECT S2T(lanes)")
        rows = execute("SELECT CLUSTER_HISTOGRAM(lanes, 10)")
        assert rows
        assert {"bin", "cluster", "members_alive"} <= set(rows[0])

    def test_holding_patterns_function(self, execute):
        rows = execute("SELECT HOLDING_PATTERNS(lanes)")
        assert isinstance(rows, list)

    def test_unknown_function(self, execute):
        with pytest.raises(SQLExecutionError, match="unknown function"):
            execute("SELECT FROBNICATE(lanes)")

    def test_function_requires_dataset_argument(self, execute):
        with pytest.raises(SQLExecutionError):
            execute("SELECT S2T(42)")

    @pytest.mark.parametrize("value", ["dense", "indexed", "Batched", ""])
    def test_s2t_strategy_other_than_batched_is_refused(self, execute, value):
        with pytest.raises(SQLExecutionError, match=rf"'{value}'.*tests/s2t/oracles.py"):
            execute(f"SELECT S2T(lanes, NULL, NULL, 2, '{value}')")

    def test_s2t_strategy_null_and_batched_are_the_same_call(self, execute):
        rows = execute("SELECT S2T(lanes, NULL, NULL, 2, NULL)")
        assert execute("SELECT S2T(lanes, NULL, NULL, 2, 'batched')") == rows
        assert execute("SELECT S2T(lanes)") == rows

    def test_s2t_strategy_must_be_a_string(self, execute):
        with pytest.raises(SQLExecutionError, match="argument 5 must be a string"):
            execute("SELECT S2T(lanes, NULL, NULL, 2, 1)")


class TestParallelS2TFunction:
    def test_s2t_jobs_argument(self, execute):
        rows = execute("SELECT S2T(lanes, NULL, NULL, 2, 'batched', 2)")
        assert rows[-1]["cluster_id"] == "outliers"
        assert any(isinstance(r["cluster_id"], int) for r in rows)

    def test_s2t_jobs_matches_serial_memberships(self, execute, engine):
        execute("SELECT S2T(lanes, NULL, NULL, 2, 'batched', 2)")
        parallel = engine.last_result("lanes")
        assert parallel.extras["execution"] == "partitioned"

    def test_s2t_invalid_jobs_rejected(self, execute):
        with pytest.raises(SQLExecutionError, match="n_jobs"):
            execute("SELECT S2T(lanes, NULL, NULL, 2, 'batched', 0)")


class TestPartitionsArgument:
    """S2T's seventh argument: the partitioned operator's partition count."""

    def test_s2t_partitions_overrides_partition_count(self, execute, engine):
        execute("SELECT S2T(lanes, NULL, NULL, NULL, NULL, NULL, 3)")
        result = engine.last_result("lanes")
        assert result.extras["execution"] == "partitioned"
        assert result.extras["n_partitions"] == 3

    def test_invalid_partitions_rejected(self, execute):
        with pytest.raises(SQLExecutionError, match="n_partitions"):
            execute("SELECT S2T(lanes, NULL, NULL, NULL, NULL, NULL, 0)")


class TestBadArguments:
    """A bad table-function argument is a ``SQLExecutionError`` naming it:
    never a builtin error escaping ``execute``, never a value silently
    truncated or replaced by its default."""

    @pytest.mark.parametrize(
        ("sql", "message"),
        [
            ("SELECT S2T(lanes, NULL, NULL, NULL, NULL, NULL, 1e400)", "argument 7 must be a finite number, got inf"),
            ("SELECT S2T(lanes, NULL, NULL, NULL, NULL, NULL, 2.7)", "argument 7 must be an integer, got 2.7"),
            ("SELECT S2T(lanes, NULL, NULL, NULL, NULL, 2.5)", "argument 6 must be an integer, got 2.5"),
            ("SELECT S2T(lanes, NULL, NULL, 2.5)", "argument 4 must be an integer, got 2.5"),
            ("SELECT QUT(lanes, 0, 1, NULL, NULL, 0, NULL, 2.5)", "argument 8 must be an integer, got 2.5"),
            ("SELECT CONVOY(lanes, 5, 0)", "min_objects must be at least 1, got 0"),
            ("SELECT CONVOY(lanes, -1)", "eps must be finite and positive, got -1.0"),
            ("SELECT TRACLUS(lanes, -1)", "eps must be finite and positive, got -1.0"),
            ("SELECT TOPTICS(lanes, -1)", "eps_cut must be finite and positive, got -1.0"),
            ("SELECT CLUSTER_HISTOGRAM(lanes, 0)", "n_bins must be positive"),
            ("SELECT HOLDING_PATTERNS(lanes, 0)", "min_turns must be finite and positive, got 0.0"),
            ("SELECT S2T(lanes, ?)", "argument 2 is out of range"),  # bound to 10**400
        ],
    )
    def test_is_refused(self, execute, sql, message):
        execute("SELECT S2T(lanes)")  # CLUSTER_HISTOGRAM bins the last clustering
        with pytest.raises(SQLExecutionError, match=re.escape(message)):
            execute(sql, (10**400,) if "?" in sql else None)


def _surplus_call(conn, route, function, sql_args):
    """Call ``function`` on ``lanes`` with ``sql_args`` through one front end."""
    if route == "sql":
        return conn.execute(f"SELECT {function}(lanes, {', '.join(sql_args)})").fetchall()
    if route == "prepared":
        return conn.prepare(f"SELECT {function}(lanes, {', '.join('?' for _ in sql_args)})")
    values = [None if arg == "NULL" else float(arg) for arg in sql_args]
    return conn.dataset("lanes").call(function, *values).run()


class TestSurplusArguments:
    """A table function called with more arguments than its signature is
    refused when planned, naming the signature, whatever the front end."""

    def test_every_function_has_a_signature(self):
        assert set(SIGNATURES) == set(FUNCTIONS)

    @pytest.mark.parametrize("route", ["sql", "prepared", "call"])
    @pytest.mark.parametrize("function", sorted(SIGNATURES))
    def test_one_argument_too_many_is_refused(self, conn, route, function):
        params = SIGNATURES[function]
        signature = f"{function}({', '.join(params)})"
        with pytest.raises(SQLExecutionError, match=re.escape(signature)):
            _surplus_call(conn, route, function, ["NULL"] * len(params))

    @pytest.mark.parametrize("route", ["sql", "prepared", "call"])
    def test_qut_with_the_retired_ninth_argument_is_refused(self, conn, route):
        with pytest.raises(SQLExecutionError, match=r"QUT takes at most 8 arguments, got 9"):
            _surplus_call(conn, route, "QUT", ["0", "100", "NULL", "NULL", "0", "NULL", "2", "2"])

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT TRACLUS(lanes, NULL, 3, 99)",
            "SELECT SUMMARY(lanes, 1, 2, 3)",
            "SELECT QUT(lanes, 0, 1e5, NULL, NULL, 0, NULL, 2, NULL, 5)",
            "EXPLAIN SELECT S2T(lanes, NULL, NULL, 2, 'batched', 1, 4, 9)",
        ],
    )
    def test_calls_that_used_to_run_are_refused(self, execute, sql):
        with pytest.raises(SQLExecutionError, match="takes at most"):
            execute(sql)

    def test_full_arity_still_runs(self, execute, lanes_small):
        mod, _ = lanes_small
        wi, we = mod.period.tmin, mod.period.tmax
        full = execute(f"SELECT QUT(lanes, {wi}, {we}, NULL, NULL, 0, NULL, 2)")
        assert full == execute(f"SELECT QUT(lanes, {wi}, {we})")
        assert execute("SELECT SUMMARY(lanes)")[0]["trajectories"] == len(mod)


class TestBufferInvalidation:
    def test_insert_after_external_reload_does_not_resurrect_points(
        self, execute, engine
    ):
        from repro.hermes.mod import MOD

        execute("CREATE DATASET tiny")
        execute(
            "INSERT INTO tiny VALUES ('a', '0', 0.0, 0.0, 0.0), ('a', '0', 1.0, 1.0, 10.0)"
        )
        assert execute("SELECT COUNT(*) FROM tiny")[0]["count"] == 2
        # Replace the dataset from outside the executor: the INSERT buffer
        # for 'tiny' is now stale and must be re-seeded from the new MOD.
        engine.load_mod("tiny", MOD(name="tiny"))
        execute(
            "INSERT INTO tiny VALUES ('b', '0', 5.0, 5.0, 0.0), ('b', '0', 6.0, 6.0, 10.0)"
        )
        rows = execute("SELECT obj_id FROM tiny")
        assert {row["obj_id"] for row in rows} == {"b"}

    def test_buffer_survives_own_materialisation(self, execute):
        execute("CREATE DATASET grow")
        # One point alone cannot materialise a trajectory...
        execute("INSERT INTO grow VALUES ('a', '0', 0.0, 0.0, 0.0)")
        assert execute("SELECT COUNT(*) FROM grow")[0]["count"] == 0
        # ...but it must still be buffered for the next INSERT to extend.
        execute("INSERT INTO grow VALUES ('a', '0', 1.0, 1.0, 10.0)")
        assert execute("SELECT COUNT(*) FROM grow")[0]["count"] == 2

    def test_a_replacement_discards_the_points_buffered_before_it(self, execute, engine):
        from repro.hermes.mod import MOD

        execute("CREATE DATASET grow")
        execute("INSERT INTO grow VALUES ('a', '0', 0.0, 0.0, 0.0)")
        engine.load_mod("grow", MOD(name="grow"))
        # The lone point went with the replaced registration, so this one
        # is alone again and completes nothing.
        execute("INSERT INTO grow VALUES ('a', '0', 1.0, 1.0, 10.0)")
        assert execute("SELECT COUNT(*) FROM grow")[0]["count"] == 0

    def test_drop_then_create_starts_from_an_empty_buffer(self, execute):
        execute("CREATE DATASET grow")
        execute("INSERT INTO grow VALUES ('a', '0', 0.0, 0.0, 0.0)")
        execute("DROP DATASET grow")
        execute("CREATE DATASET grow")
        execute("INSERT INTO grow VALUES ('a', '0', 1.0, 1.0, 10.0)")
        assert execute("SELECT COUNT(*) FROM grow")[0]["count"] == 0

    def test_replacing_one_dataset_keeps_the_others_buffer(self, execute, engine):
        from repro.hermes.mod import MOD

        execute("CREATE DATASET grow")
        execute("INSERT INTO grow VALUES ('a', '0', 0.0, 0.0, 0.0)")
        engine.load_mod("other", MOD(name="other"))
        engine.drop("other")
        execute("INSERT INTO grow VALUES ('a', '0', 1.0, 1.0, 10.0)")
        assert execute("SELECT COUNT(*) FROM grow")[0]["count"] == 2

    def test_an_insert_that_rebuilds_keeps_the_leftover_points_buffered(self, execute, engine):
        execute("CREATE DATASET grow")
        execute(
            "INSERT INTO grow VALUES ('a', '0', 0.0, 0.0, 0.0), ('a', '0', 1.0, 1.0, 10.0),"
            " ('b', '0', 5.0, 5.0, 0.0)"
        )
        generation = engine.dataset_generation("grow")
        # 'a' exists, so this re-materialises the dataset through load_mod;
        # the lone 'b' point must outlive the replacement it causes.
        execute("INSERT INTO grow VALUES ('a', '0', 2.0, 2.0, 20.0)")
        assert engine.dataset_generation("grow") > generation
        assert execute("SELECT COUNT(*) FROM grow")[0]["count"] == 3
        execute("INSERT INTO grow VALUES ('b', '0', 6.0, 6.0, 10.0)")
        rows = execute("SELECT obj_id FROM grow")
        assert sorted(row["obj_id"] for row in rows) == ["a", "a", "a", "b", "b"]
