"""The logical-plan layer: lowering, binding, rendering, front-end identity."""

import pytest

from repro.core.engine import HermesEngine
from repro.sql.ast import Comparison, Parameter
from repro.sql.errors import SQLBindError
from repro.sql.plan import (
    CountPlan,
    CreatePlan,
    DropPlan,
    ExplainPlan,
    FunctionPlan,
    InsertPlan,
    LoadPlan,
    QuTPlan,
    S2TPlan,
    ScanPlan,
    ShowPlan,
    plan_lines,
)
from repro.sql.planner import plan_sql, plan_sql_script


class TestLowering:
    def test_show(self):
        assert plan_sql("SHOW DATASETS") == ShowPlan()

    def test_create_drop(self):
        assert plan_sql("CREATE DATASET d") == CreatePlan("d")
        assert plan_sql("DROP DATASET d") == DropPlan("d")

    def test_load(self):
        assert plan_sql("LOAD DATASET d FROM '/x.csv'") == LoadPlan("d", "/x.csv")

    def test_insert(self):
        plan = plan_sql("INSERT INTO d VALUES ('a', '0', 1, 2, 3)")
        assert plan == InsertPlan("d", (("a", "0", 1, 2, 3),))

    def test_count(self):
        plan = plan_sql("SELECT COUNT(*) FROM d WHERE t >= 5")
        assert plan == CountPlan("d", (Comparison("t", ">=", 5),))

    def test_scan(self):
        plan = plan_sql("SELECT obj_id, t FROM d WHERE t BETWEEN 1 AND 9 ORDER BY t DESC LIMIT 3")
        assert plan == ScanPlan(
            dataset="d",
            columns=("obj_id", "t"),
            predicates=(Comparison("t", ">=", 1), Comparison("t", "<=", 9)),
            order_by="t",
            descending=True,
            limit=3,
        )

    def test_s2t_defaults_fill_null_and_missing(self):
        assert plan_sql("SELECT S2T(d)") == S2TPlan(dataset="d")
        assert plan_sql("SELECT S2T(d, NULL, NULL, 3, 'batched', 2)") == S2TPlan(
            dataset="d", gamma=3, jobs=2
        )

    def test_qut_defaults(self):
        assert plan_sql("SELECT QUT(d, 0, 100)") == QuTPlan(dataset="d", wi=0, we=100)

    def test_partitions_argument_lowered(self):
        assert plan_sql("SELECT S2T(d, NULL, NULL, NULL, NULL, 1, 3)") == S2TPlan(
            dataset="d", jobs=1, partitions=3
        )

    def test_qut_takes_the_papers_eight_arguments(self):
        assert plan_sql("SELECT QUT(d, 0, 100, 5, 1, 0, 2.5, 3)") == QuTPlan(
            dataset="d", wi=0, we=100, tau=5, delta=1, tolerance=0, distance=2.5, gamma=3
        )

    def test_other_functions_stay_generic(self):
        assert plan_sql("SELECT TRACLUS(d, 4.0, 3)") == FunctionPlan(
            "TRACLUS", ("d", 4.0, 3)
        )

    def test_explain_wraps_child(self):
        plan = plan_sql("EXPLAIN SELECT S2T(d)")
        assert plan == ExplainPlan(S2TPlan(dataset="d"))
        assert plan.datasets() == ("d",)

    def test_script_lowering(self):
        plans = plan_sql_script("SHOW DATASETS; SELECT S2T(d);")
        assert plans == [ShowPlan(), S2TPlan(dataset="d")]


class TestFrontEndIdentity:
    """SQL strings and the fluent Python API compile to identical plans."""

    @pytest.fixture
    def conn(self):
        from repro.api import Connection

        return Connection(engine=HermesEngine.in_memory())

    def test_s2t_identity(self, conn):
        fluent = conn.dataset("lanes").s2t(sigma=2.5, jobs=4).plan
        assert fluent == plan_sql("SELECT S2T(lanes, 2.5, NULL, NULL, NULL, 4)")
        assert conn.dataset("lanes").s2t().plan == plan_sql("SELECT S2T(lanes)")

    def test_fluent_s2t_has_no_strategy_keyword(self, conn):
        with pytest.raises(TypeError):
            conn.dataset("lanes").s2t(strategy="batched")

    def test_qut_identity(self, conn):
        fluent = conn.dataset("lanes").qut(0.0, 900.0, gamma=3).plan
        assert fluent == plan_sql("SELECT QUT(lanes, 0.0, 900.0, NULL, NULL, NULL, NULL, 3)")

    def test_partitions_identity(self, conn):
        assert conn.dataset("lanes").s2t(partitions=3).plan == plan_sql(
            "SELECT S2T(lanes, NULL, NULL, NULL, NULL, NULL, 3)"
        )

    def test_fluent_builders_have_no_shards_keyword(self, conn):
        with pytest.raises(TypeError):
            conn.dataset("lanes").s2t(shards=3)
        with pytest.raises(TypeError):
            conn.dataset("lanes").qut(0.0, 900.0, shards=2)

    def test_scan_identity(self, conn):
        fluent = conn.dataset("lanes").points(
            "obj_id", "t", where=[("t", ">=", 5)], order_by="t", limit=7
        ).plan
        assert fluent == plan_sql(
            "SELECT obj_id, t FROM lanes WHERE t >= 5 ORDER BY t LIMIT 7"
        )

    def test_count_identity(self, conn):
        assert conn.dataset("lanes").count().plan == plan_sql(
            "SELECT COUNT(*) FROM lanes"
        )

    def test_function_identity(self, conn):
        assert conn.dataset("lanes").call("TRACLUS", 4.0, 3).plan == plan_sql(
            "SELECT TRACLUS(lanes, 4.0, 3)"
        )
        assert conn.dataset("lanes").summary().plan == plan_sql("SELECT SUMMARY(lanes)")

    def test_call_routes_s2t_and_qut_through_typed_plans(self, conn):
        """call("S2T") must lower exactly like the SQL string and .s2t()."""
        assert conn.dataset("lanes").call("S2T").plan == plan_sql("SELECT S2T(lanes)")
        assert conn.dataset("lanes").call("QUT", 0, 9).plan == plan_sql(
            "SELECT QUT(lanes, 0, 9)"
        )
        assert conn.dataset("lanes").call("s2t").plan == conn.dataset("lanes").s2t().plan

    def test_load_identity(self, conn):
        assert conn.dataset("d").load("/x.csv").plan == plan_sql(
            "LOAD DATASET d FROM '/x.csv'"
        )


class TestBinding:
    def test_named_binding(self):
        plan = plan_sql("SELECT S2T(d, :sigma)")
        assert plan.parameters() == (Parameter(name="sigma"),)
        assert plan.bind({"sigma": 2.0}) == plan_sql("SELECT S2T(d, 2.0)")

    def test_positional_binding_in_order(self):
        plan = plan_sql("SELECT QUT(d, ?, ?)")
        bound = plan.bind([0.0, 50.0])
        assert bound == plan_sql("SELECT QUT(d, 0.0, 50.0)")

    def test_predicate_binding(self):
        plan = plan_sql("SELECT obj_id FROM d WHERE t >= :t0")
        bound = plan.bind({"t0": 12})
        assert bound == plan_sql("SELECT obj_id FROM d WHERE t >= 12")

    def test_insert_binding(self):
        plan = plan_sql("INSERT INTO d VALUES (:obj, '0', :x, :y, :t)")
        bound = plan.bind({"obj": "a", "x": 1, "y": 2, "t": 3})
        assert bound == plan_sql("INSERT INTO d VALUES ('a', '0', 1, 2, 3)")

    def test_missing_named_parameter(self):
        with pytest.raises(SQLBindError, match="missing value"):
            plan_sql("SELECT S2T(d, :sigma)").bind({})

    def test_unknown_named_parameter(self):
        with pytest.raises(SQLBindError, match="unknown parameter"):
            plan_sql("SELECT S2T(d, :sigma)").bind({"sigma": 1.0, "oops": 2})

    def test_unbound_rejected_by_none(self):
        with pytest.raises(SQLBindError, match="unbound parameters: sigma"):
            plan_sql("SELECT S2T(d, :sigma)").bind(None)

    def test_positional_arity_mismatch(self):
        with pytest.raises(SQLBindError, match="positional parameter"):
            plan_sql("SELECT QUT(d, ?, ?)").bind([1.0])

    def test_mixing_styles_rejected(self):
        with pytest.raises(SQLBindError, match="positional"):
            plan_sql("SELECT QUT(d, ?, ?)").bind({"wi": 0})
        with pytest.raises(SQLBindError, match="named"):
            plan_sql("SELECT S2T(d, :sigma)").bind([1.0])

    def test_statement_mixing_placeholder_styles_unbindable_with_clear_error(self):
        plan = plan_sql("SELECT QUT(d, :wi, ?)")
        for params in ({"wi": 0}, [0], None):
            with pytest.raises(SQLBindError, match="mixes named"):
                plan.bind(params)

    def test_bare_string_rejected_as_positional_params(self):
        with pytest.raises(SQLBindError, match="bare string"):
            plan_sql("SELECT COUNT(*) FROM d WHERE t >= ?").bind("5")

    def test_params_on_parameterless_statement_rejected(self):
        with pytest.raises(SQLBindError, match="takes no parameters"):
            plan_sql("SELECT S2T(d)").bind({"sigma": 1.0})

    def test_bind_returns_new_plan_and_keeps_template(self):
        template = plan_sql("SELECT S2T(d, :sigma)")
        bound = template.bind({"sigma": 1.0})
        assert bound is not template
        assert template.parameters()  # template stays re-bindable
        assert not bound.parameters()


class TestExplainRendering:
    @pytest.fixture
    def engine(self, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", mod)
        return engine

    @pytest.mark.parametrize(
        "sql",
        [
            "SHOW DATASETS",
            "CREATE DATASET fresh",
            "DROP DATASET lanes",
            "LOAD DATASET lanes FROM '/x.csv'",
            "INSERT INTO lanes VALUES ('a', '0', 1, 2, 3)",
            "SELECT COUNT(*) FROM lanes",
            "SELECT obj_id FROM lanes WHERE t >= 3 ORDER BY t LIMIT 2",
            "SELECT S2T(lanes)",
            "SELECT QUT(lanes, 0, 100)",
            "SELECT TRACLUS(lanes)",
            "SELECT SUMMARY(lanes)",
        ],
    )
    def test_every_statement_type_renders(self, engine, sql):
        rows = engine.plan_executor().execute(plan_sql(f"EXPLAIN {sql}")).fetchall()
        assert rows, sql
        assert all(set(row) == {"plan"} for row in rows)
        # The first line is always the plan node itself.
        assert "Plan(" in rows[0]["plan"] or rows[0]["plan"] == "ShowPlan()"

    def test_placeholders_render_unbound(self, engine):
        lines = plan_lines(plan_sql("SELECT S2T(lanes, :sigma, ?)"))
        assert ":sigma" in lines[0] and "?1" in lines[0]

    def test_artifact_lines_track_engine_caches(self, engine):
        lines = plan_lines(plan_sql("SELECT S2T(lanes)"), engine=engine)
        artifact = next(line for line in lines if line.startswith("artifacts[lanes]"))
        assert "frame_cached=False" in artifact
        engine.frame("lanes")
        artifact = plan_lines(plan_sql("SELECT S2T(lanes)"), engine=engine)[-1]
        assert "frame_cached=True" in artifact
        assert "loaded=True" in artifact

    def test_artifact_lines_report_persistence(self, tmp_path, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.on_disk(tmp_path / "store")
        engine.load_mod("lanes", mod)
        artifact = plan_lines(plan_sql("SELECT S2T(lanes)"), engine=engine)[-1]
        assert "persisted=True" in artifact
        assert "storage_partitions=1" in artifact
