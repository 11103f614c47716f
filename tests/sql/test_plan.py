"""The logical-plan layer: parsing, binding, rendering, front-end identity."""

from dataclasses import is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.core.engine import HermesEngine
from repro.sql import plan as plan_module
from repro.sql.errors import SQLBindError, SQLExecutionError
from repro.sql.plan import (
    SIGNATURES,
    Comparison,
    CountPlan,
    CreatePlan,
    DropPlan,
    ExplainPlan,
    FunctionPlan,
    InsertPlan,
    LoadPlan,
    Parameter,
    ScanPlan,
    ShowPlan,
    plan_lines,
)
from repro.sql.planner import plan_sql, plan_sql_script


class TestParsing:
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
        assert plan_sql("SELECT S2T(d)").args == ("d", None, None, 2, "batched", 1, None)
        assert plan_sql("SELECT S2T(d, NULL, NULL, 3, 'batched', 2)").args == (
            "d", None, None, 3, "batched", 2, None
        )

    def test_qut_defaults(self):
        assert plan_sql("SELECT QUT(d, 0, 100)").args == ("d", 0, 100, None, None, 0.0, None, 2)

    def test_every_spelling_of_a_call_is_one_plan(self):
        conn = connect()
        s2t = plan_sql("SELECT S2T(d)")
        assert s2t == plan_sql("SELECT S2T(d, NULL, NULL, NULL)")
        assert s2t == conn.dataset("d").call("S2T").plan == conn.dataset("d").s2t().plan
        qut = plan_sql("SELECT QUT(d, 0, 100)")
        assert qut == conn.dataset("d").call("QUT", 0, 100).plan == conn.dataset("d").qut(0, 100).plan

    def test_partitions_argument(self):
        assert plan_sql("SELECT S2T(d, NULL, NULL, NULL, NULL, 1, 3)").args[5:] == (1, 3)

    def test_qut_takes_the_papers_eight_arguments(self):
        assert plan_sql("SELECT QUT(d, 0, 100, 5, 1, 0, 2.5, 3)") == FunctionPlan(
            "QUT", ("d", 0, 100, 5, 1, 0, 2.5, 3)
        )

    def test_other_functions_take_their_defaults_too(self):
        assert plan_sql("SELECT TRACLUS(d, 4.0)") == FunctionPlan("TRACLUS", ("d", 4.0, 3))

    def test_unknown_function_keeps_its_arguments(self):
        assert plan_sql("SELECT VERSION(1, NULL)").args == (1, None)

    def test_explain_wraps_child(self):
        plan = plan_sql("EXPLAIN SELECT S2T(d)")
        assert plan == ExplainPlan(FunctionPlan("S2T", ("d",)))
        assert plan.datasets() == ("d",)

    def test_script_parses_one_plan_per_statement(self):
        plans = plan_sql_script("SHOW DATASETS; SELECT S2T(d);")
        assert plans == [ShowPlan(), FunctionPlan("S2T", ("d",))]


# -- generated table-function calls ---------------------------------------------

# A literal and the value it parses to: ints stay ints and floats keep a '.'
# or an exponent, so EXPLAIN renders both routes' values alike.
_LITERAL = st.one_of(
    st.integers(-(10**6), 10**6).map(lambda v: (str(v), v)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (repr(v), v)),
    st.text("abxyz_", min_size=1, max_size=6).map(lambda v: (f"'{v}'", v)),
)
# Numbered by position once a call is drawn, as the parser numbers '?'.
_NEXT_POSITIONAL = Parameter(index=-1)
_ARGUMENT = st.one_of(
    st.just(("NULL", None)),
    _LITERAL,
    st.sampled_from(["a", "sigma", "w_1"]).map(lambda n: (f":{n}", Parameter(name=n))),
    st.just(("?", _NEXT_POSITIONAL)),
)
# Keyword of each argument after D in the s2t()/qut() builders; s2t() has
# no ``strategy`` keyword.
_KEYWORDS = {
    "S2T": ("sigma", "eps", "gamma", None, "jobs", "partitions"),
    "QUT": ("wi", "we", "tau", "delta", "tolerance", "distance", "gamma"),
}


@st.composite
def _calls(draw, surplus=False):
    """``(function, sql, args after D)`` for a call on ``lanes``."""
    function = draw(st.sampled_from(sorted(SIGNATURES)))
    arity = len(SIGNATURES[function])
    count = draw(st.integers(arity + 1, arity + 3) if surplus else st.integers(1, arity))
    texts, rest = [], []
    for text, value in draw(st.lists(_ARGUMENT, min_size=count - 1, max_size=count - 1)):
        if value == _NEXT_POSITIONAL:
            value = Parameter(index=sum(isinstance(v, Parameter) and v.name is None for v in rest))
        texts.append(text)
        rest.append(value)
    sql = f"SELECT {function}({', '.join(['lanes', *texts])})"
    return function, sql, tuple(rest)


def _refusal(build):
    with pytest.raises(SQLExecutionError) as excinfo:
        build()
    return str(excinfo.value)


class TestFrontEndIdentity:
    """SQL strings and the fluent Python API compile to identical plans."""

    @settings(max_examples=300, deadline=None)
    @given(call=_calls())
    def test_generated_calls_plan_alike_on_every_route(self, call):
        function, sql, rest = call
        conn = connect()
        plan = plan_sql(sql)
        fluent = conn.dataset("lanes").call(function, *rest).plan
        assert plan == fluent
        assert plan_lines(plan) == plan_lines(fluent)
        assert conn.prepare(sql).plan == plan
        keywords = _KEYWORDS.get(function)
        if keywords is not None:
            named = dict(zip(keywords, rest))
            if named.pop(None, None) is None:  # s2t() cannot name a strategy
                built = getattr(conn.dataset("lanes"), function.lower())(**named).plan
                assert built == plan
                assert plan_lines(built) == plan_lines(plan)
        if function == "SUMMARY":
            assert conn.dataset("lanes").summary().plan == plan

    @settings(max_examples=100, deadline=None)
    @given(call=_calls(surplus=True))
    def test_generated_surplus_arguments_are_refused_alike(self, call):
        function, sql, rest = call
        conn = connect()
        arity = len(SIGNATURES[function])
        message = _refusal(lambda: plan_sql(sql))
        assert message == (
            f"{function} takes at most {arity} arguments, got {len(rest) + 1}: "
            f"{function}({', '.join(SIGNATURES[function])})"
        )
        assert _refusal(lambda: conn.prepare(sql)) == message
        assert _refusal(lambda: conn.execute(sql)) == message
        assert _refusal(lambda: conn.dataset("lanes").call(function, *rest)) == message

    @pytest.fixture
    def conn(self):
        return connect()

    def test_fluent_s2t_has_no_strategy_keyword(self, conn):
        with pytest.raises(TypeError):
            conn.dataset("lanes").s2t(strategy="batched")

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

    def test_placeholder_bound_to_null_takes_the_default(self):
        plan = plan_sql("SELECT S2T(d, NULL, NULL, ?)")
        assert plan.args[3] == Parameter(index=0)
        assert plan.bind([None]) == plan_sql("SELECT S2T(d)")

    def test_params_on_parameterless_statement_rejected(self):
        with pytest.raises(SQLBindError, match="takes no parameters"):
            plan_sql("SELECT S2T(d)").bind({"sigma": 1.0})

    def test_bind_returns_new_plan_and_keeps_template(self):
        template = plan_sql("SELECT S2T(d, :sigma)")
        bound = template.bind({"sigma": 1.0})
        assert bound is not template
        assert template.parameters()  # template stays re-bindable
        assert not bound.parameters()

    def test_every_plan_dataclass_is_frozen(self):
        """Memo keys and shared templates rely on plans never changing."""
        classes = [
            value
            for value in vars(plan_module).values()
            if isinstance(value, type)
            and is_dataclass(value)
            and value.__module__ == plan_module.__name__
        ]
        assert Parameter in classes and ScanPlan in classes
        assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []


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
        assert rows[0]["plan"] == plan_sql(sql).describe()

    def test_function_arguments_are_named_from_the_signature(self):
        assert plan_sql("SELECT S2T(flights, :sigma)").describe() == (
            "S2T(D='flights', sigma=:sigma, eps=NULL, gamma=2, strategy='batched', "
            "jobs=1, partitions=NULL)"
        )
        assert plan_sql("SELECT CONVOY(f, 2.5, ?)").describe() == (
            "CONVOY(D='f', eps=2.5, m=?1, k=3)"
        )

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
