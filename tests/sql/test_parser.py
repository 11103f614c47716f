"""Unit tests for the SQL parser: each statement parses straight into its plan."""

import pytest

from repro.sql.errors import SQLParseError
from repro.sql.parser import plan_sql, plan_sql_script
from repro.sql.plan import (
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
)


class TestDDLStatements:
    def test_create_dataset(self):
        assert plan_sql("CREATE DATASET flights") == CreatePlan("flights")
        assert plan_sql("create dataset flights;") == CreatePlan("flights")

    def test_drop_dataset(self):
        assert plan_sql("DROP DATASET flights") == DropPlan("flights")

    def test_show_datasets(self):
        assert plan_sql("SHOW DATASETS") == ShowPlan()

    def test_load_dataset(self):
        statement = plan_sql("LOAD DATASET flights FROM '/tmp/data.csv'")
        assert statement == LoadPlan("flights", "/tmp/data.csv")

    def test_load_requires_string_path(self):
        with pytest.raises(SQLParseError):
            plan_sql("LOAD DATASET flights FROM data.csv")


class TestInsert:
    def test_single_row(self):
        statement = plan_sql("INSERT INTO d VALUES ('a', '0', 1.0, 2.0, 3.0)")
        assert statement == InsertPlan("d", (("a", "0", 1.0, 2.0, 3.0),))

    def test_multiple_rows(self):
        statement = plan_sql(
            "INSERT INTO d VALUES ('a', '0', 1, 2, 3), ('a', '0', 2, 3, 4)"
        )
        assert len(statement.rows) == 2

    def test_missing_parenthesis(self):
        with pytest.raises(SQLParseError):
            plan_sql("INSERT INTO d VALUES 'a', '0', 1, 2, 3")


class TestSelectFunction:
    def test_qut_full_signature(self):
        statement = plan_sql("SELECT QUT(flights, 0, 1800, 900, 225, 0, 5, 3)")
        assert statement == FunctionPlan(
            "QUT", ("flights", 0, 1800, 900, 225, 0, 5, 3)
        )

    def test_qut_minimal_signature(self):
        statement = plan_sql("SELECT QUT(flights, 0, 1800)")
        assert statement == FunctionPlan("QUT", ("flights", 0, 1800))
        assert statement.args == ("flights", 0, 1800, None, None, 0.0, None, 2)

    def test_function_name_uppercased(self):
        assert plan_sql("select s2t(flights)").function == "S2T"

    def test_no_arguments(self):
        assert plan_sql("SELECT VERSION()") == FunctionPlan("VERSION", ())

    def test_float_arguments(self):
        statement = plan_sql("SELECT S2T(d, 1.5, 2.25)")
        assert statement.args[:3] == ("d", 1.5, 2.25)


class TestSelectCount:
    def test_count_star(self):
        statement = plan_sql("SELECT COUNT(*) FROM flights")
        assert statement == CountPlan("flights", ())

    def test_count_with_where(self):
        statement = plan_sql("SELECT COUNT(*) FROM flights WHERE t >= 10")
        assert statement.predicates == (Comparison("t", ">=", 10),)


class TestSelectPoints:
    def test_star_projection(self):
        statement = plan_sql("SELECT * FROM flights")
        assert statement == ScanPlan("flights", ("*",))

    def test_column_list(self):
        statement = plan_sql("SELECT obj_id, x, y FROM flights")
        assert statement.columns == ("obj_id", "x", "y")

    def test_where_and_chain(self):
        statement = plan_sql("SELECT x FROM d WHERE t >= 5 AND t <= 10 AND obj_id = 'a'")
        assert statement.predicates == (
            Comparison("t", ">=", 5),
            Comparison("t", "<=", 10),
            Comparison("obj_id", "=", "a"),
        )

    def test_between_desugars_to_two_comparisons(self):
        statement = plan_sql("SELECT x FROM d WHERE t BETWEEN 3 AND 9")
        assert statement.predicates == (
            Comparison("t", ">=", 3),
            Comparison("t", "<=", 9),
        )

    def test_order_by_and_limit(self):
        statement = plan_sql("SELECT x FROM d ORDER BY t DESC LIMIT 7")
        assert statement.order_by == "t"
        assert statement.descending is True
        assert statement.limit == 7

    def test_order_by_asc_default(self):
        statement = plan_sql("SELECT x FROM d ORDER BY t")
        assert statement.descending is False

    def test_unknown_column_in_where_rejected(self):
        with pytest.raises(SQLParseError, match="unknown column"):
            plan_sql("SELECT x FROM d WHERE altitude > 3")


class TestExplain:
    def test_explain_wraps_statement(self):
        statement = plan_sql("EXPLAIN SELECT S2T(flights)")
        assert statement == ExplainPlan(FunctionPlan("S2T", ("flights",)))

    def test_explain_any_statement_form(self):
        assert plan_sql("EXPLAIN SHOW DATASETS") == ExplainPlan(ShowPlan())
        assert plan_sql("explain drop dataset d;") == ExplainPlan(DropPlan("d"))


class TestParameters:
    def test_named_parameters_in_function_args(self):
        statement = plan_sql("SELECT QUT(flights, :wi, :we)")
        assert statement.args[:3] == ("flights", Parameter(name="wi"), Parameter(name="we"))

    def test_positional_parameters_numbered_in_order(self):
        statement = plan_sql("SELECT QUT(flights, ?, ?, ?)")
        assert statement.args[:4] == (
            "flights",
            Parameter(index=0),
            Parameter(index=1),
            Parameter(index=2),
        )

    def test_parameter_in_predicate_and_insert(self):
        statement = plan_sql("SELECT x FROM d WHERE t >= :t0")
        assert statement.predicates == (Comparison("t", ">=", Parameter(name="t0")),)
        statement = plan_sql("INSERT INTO d VALUES (:o, '0', ?, ?, ?)")
        assert statement.rows[0][0] == Parameter(name="o")

    def test_parameter_as_load_path(self):
        assert plan_sql("LOAD DATASET d FROM :path") == LoadPlan("d", Parameter(name="path"))


class TestParseScript:
    def test_splits_statements(self):
        statements = plan_sql_script("SHOW DATASETS; CREATE DATASET d;")
        assert statements == [ShowPlan(), CreatePlan("d")]

    def test_semicolon_inside_string_is_data(self):
        statements = plan_sql_script("INSERT INTO d VALUES ('a;b', '0', 1, 2, 3)")
        assert statements == [InsertPlan("d", (("a;b", "0", 1, 2, 3),))]

    def test_positional_params_number_per_statement(self):
        first, second = plan_sql_script("SELECT QUT(d, ?, ?); SELECT QUT(e, ?, ?)")
        assert first.args[1:3] == (Parameter(index=0), Parameter(index=1))
        assert second.args[1:3] == (Parameter(index=0), Parameter(index=1))

    def test_empty_script(self):
        assert plan_sql_script("  ;;  ") == []

    def test_missing_separator_rejected(self):
        with pytest.raises(SQLParseError, match="between statements"):
            plan_sql_script("SHOW DATASETS CREATE DATASET d")


class TestParseErrors:
    def test_garbage_statement(self):
        with pytest.raises(SQLParseError):
            plan_sql("EXPLODE THE DATABASE")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SQLParseError):
            plan_sql("SHOW DATASETS SELECT")

    def test_empty_statement(self):
        with pytest.raises(SQLParseError):
            plan_sql("")

    def test_statement_must_start_with_keyword(self):
        with pytest.raises(SQLParseError):
            plan_sql("flights SELECT")

    def test_error_carries_line_and_col(self):
        with pytest.raises(SQLParseError) as excinfo:
            plan_sql("SELECT obj_id FRM lanes")
        err = excinfo.value
        assert (err.line, err.col) == (1, 15)
        assert "line 1, col 15" in str(err)

    def test_error_renders_caret_snippet(self):
        with pytest.raises(SQLParseError) as excinfo:
            plan_sql("SELECT obj_id FRM lanes")
        message = str(excinfo.value)
        snippet_line, caret_line = message.splitlines()[1:3]
        assert snippet_line.strip() == "SELECT obj_id FRM lanes"
        assert caret_line.index("^") == snippet_line.index("FRM")

    def test_error_position_on_later_line(self):
        with pytest.raises(SQLParseError) as excinfo:
            plan_sql("SELECT obj_id\nFROM lanes\nWHERE altitude > 3")
        err = excinfo.value
        assert err.line == 3
        assert "unknown column" in str(err)
        snippet_line, caret_line = str(err).splitlines()[1:3]
        assert caret_line.index("^") == snippet_line.index("altitude")

    def test_eof_error_names_end_of_statement(self):
        with pytest.raises(SQLParseError, match="end of statement"):
            plan_sql("CREATE DATASET")
