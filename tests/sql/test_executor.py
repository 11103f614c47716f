"""Integration tests for SQL execution against a live engine, through ``repro.api``."""

import pytest

from repro.api import Connection
from repro.core.engine import HermesEngine
from repro.hermes.io import write_csv
from repro.sql.errors import SQLExecutionError


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
        assert rows[0]["plan"].startswith("S2TPlan(")
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

    def test_s2t_retired_strategy_names_the_available_ones(self, execute):
        with pytest.raises(SQLExecutionError, match="'indexed'.*dense, batched"):
            execute("SELECT S2T(lanes, NULL, NULL, 2, 'indexed')")


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


class TestShardsKnob:
    """The SHARDS argument on QUT (index layout) and S2T (partition count)."""

    def test_qut_shards_fans_out_the_build_only(self, execute, engine, lanes_small):
        mod, _ = lanes_small
        wi, we = mod.period.tmin, mod.period.tmax
        baseline = execute(f"SELECT QUT(lanes, {wi}, {we})")
        rows = execute(
            f"SELECT QUT(lanes, {wi}, {we}, NULL, NULL, NULL, NULL, NULL, 2)"
        )
        # The cached tree is the index whatever fan-out a query names.
        assert rows == baseline
        engine.retratree("lanes", rebuild=True, shards=2)
        assert execute(f"SELECT QUT(lanes, {wi}, {we})") == baseline

    def test_s2t_shards_overrides_partition_count(self, execute, engine):
        execute("SELECT S2T(lanes, NULL, NULL, NULL, NULL, NULL, 3)")
        result = engine.last_result("lanes")
        assert result.extras["execution"] == "partitioned"
        assert result.extras["n_partitions"] == 3

    def test_invalid_shards_rejected(self, execute):
        with pytest.raises(SQLExecutionError, match="shards"):
            execute(
                "SELECT QUT(lanes, 0, 100, NULL, NULL, NULL, NULL, NULL, 0)"
            )


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
