"""Recursive-descent parser for the supported SQL subset.

Supported statement forms::

    CREATE DATASET flights;
    DROP DATASET flights;
    SHOW DATASETS;
    LOAD DATASET flights FROM 'flights.csv';
    INSERT INTO flights VALUES ('a320', '0', 1.0, 2.0, 3.0), (...);
    SELECT COUNT(*) FROM flights WHERE t >= 100;
    SELECT obj_id, x, y, t FROM flights WHERE obj_id = 'a320' AND t BETWEEN 0 AND 50
        ORDER BY t LIMIT 10;
    SELECT QUT(flights, 0, 1800, 900, 225, 0, 5, 3);
    SELECT S2T(flights);
    SELECT TRACLUS(flights, 4.0, 3);
    SELECT SUMMARY(flights);
    EXPLAIN SELECT S2T(flights, :sigma);

Each statement parses straight into its logical plan
(:mod:`repro.sql.plan`).  A table function call becomes a
:class:`~repro.sql.plan.FunctionPlan`, which checks the arguments against
the function's signature as it is built.

Every literal position also accepts a parameter placeholder — positional
``?`` or named ``:name`` — which parses into a
:class:`~repro.sql.plan.Parameter` and is bound later (cursor ``execute``
params, :meth:`~repro.sql.plan.LogicalPlan.bind`).

Parse failures raise :class:`~repro.sql.errors.SQLParseError` carrying the
statement source and offset, so the message pins the failure with a
``line L, col C`` header and a caret snippet.
"""

from __future__ import annotations

from repro.sql.errors import SQLParseError
from repro.sql.lexer import Token, tokenize
from repro.sql.plan import (
    Comparison,
    CountPlan,
    CreatePlan,
    DropPlan,
    ExplainPlan,
    FunctionPlan,
    InsertPlan,
    LoadPlan,
    LogicalPlan,
    Parameter,
    ScanPlan,
    ShowPlan,
)

__all__ = ["plan_sql", "plan_sql_script"]

_POINT_COLUMNS = {"obj_id", "traj_id", "x", "y", "t"}


class _Parser:
    def __init__(self, tokens: list[Token], source: str = "") -> None:
        self._tokens = tokens
        self._pos = 0
        self._source = source
        self._param_counter = 0

    def _error(self, message: str, position: int) -> SQLParseError:
        return SQLParseError(message, source=self._source, position=position)

    # -- token utilities ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, type_: str, value: str | None = None) -> Token:
        token = self._peek()
        if token.type != type_ or (value is not None and token.value.upper() != value):
            expected = value or type_
            got = repr(token.value) if token.type != "EOF" else "end of statement"
            raise self._error(f"expected {expected}, got {got}", token.position)
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token.type == "KEYWORD" and token.value.upper() == word:
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            token = self._peek()
            got = repr(token.value) if token.type != "EOF" else "end of statement"
            raise self._error(f"expected {word}, got {got}", token.position)

    # -- entry point ------------------------------------------------------------

    def parse_statement(self) -> LogicalPlan:
        statement = self._parse_one()
        if self._peek().type == "SEMI":
            self._advance()
        self._expect("EOF")
        return statement

    def parse_script(self) -> list[LogicalPlan]:
        """Parse a ``;``-separated sequence of statements."""
        statements: list[LogicalPlan] = []
        while True:
            while self._peek().type == "SEMI":
                self._advance()
            if self._peek().type == "EOF":
                return statements
            # Positional '?' placeholders number per statement, not per
            # script: each statement binds its own parameter sequence.
            self._param_counter = 0
            statements.append(self._parse_one())
            token = self._peek()
            if token.type == "SEMI":
                self._advance()
            elif token.type != "EOF":
                raise self._error(
                    f"expected ';' between statements, got {token.value!r}",
                    token.position,
                )

    def _parse_one(self) -> LogicalPlan:
        token = self._peek()
        if token.type != "KEYWORD":
            raise self._error(
                f"statement must start with a keyword, got {token.value!r}",
                token.position,
            )
        word = token.value.upper()
        if word == "EXPLAIN":
            self._advance()
            return ExplainPlan(self._parse_one())
        if word == "CREATE":
            return self._parse_create()
        if word == "DROP":
            return self._parse_drop()
        if word == "SHOW":
            return self._parse_show()
        if word == "LOAD":
            return self._parse_load()
        if word == "INSERT":
            return self._parse_insert()
        if word == "SELECT":
            return self._parse_select()
        raise self._error(f"unsupported statement starting with {word}", token.position)

    # -- statements -----------------------------------------------------------------

    def _parse_create(self) -> LogicalPlan:
        self._expect_keyword("CREATE")
        self._expect_keyword("DATASET")
        name = self._expect("IDENT").value
        return CreatePlan(name)

    def _parse_drop(self) -> LogicalPlan:
        self._expect_keyword("DROP")
        self._expect_keyword("DATASET")
        name = self._expect("IDENT").value
        return DropPlan(name)

    def _parse_show(self) -> LogicalPlan:
        self._expect_keyword("SHOW")
        self._expect_keyword("DATASETS")
        return ShowPlan()

    def _parse_load(self) -> LogicalPlan:
        self._expect_keyword("LOAD")
        self._expect_keyword("DATASET")
        name = self._expect("IDENT").value
        self._expect_keyword("FROM")
        token = self._peek()
        if token.type in ("PARAM", "NAMED_PARAM"):
            path = self._parse_literal()
        else:
            path = self._expect("STRING").value
        return LoadPlan(name, path)

    def _parse_insert(self) -> LogicalPlan:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        dataset = self._expect("IDENT").value
        self._expect_keyword("VALUES")
        rows = [self._parse_value_tuple()]
        while self._peek().type == "COMMA":
            self._advance()
            rows.append(self._parse_value_tuple())
        return InsertPlan(dataset, tuple(rows))

    def _parse_value_tuple(self) -> tuple[object, ...]:
        self._expect("LPAREN")
        values = [self._parse_literal()]
        while self._peek().type == "COMMA":
            self._advance()
            values.append(self._parse_literal())
        self._expect("RPAREN")
        return tuple(values)

    def _parse_literal(self) -> object:
        token = self._peek()
        if token.type == "NUMBER":
            self._advance()
            return _number(token.value)
        if token.type == "STRING":
            self._advance()
            return token.value
        if token.type == "PARAM":
            self._advance()
            param = Parameter(index=self._param_counter)
            self._param_counter += 1
            return param
        if token.type == "NAMED_PARAM":
            self._advance()
            return Parameter(name=token.value)
        if token.type == "IDENT":
            self._advance()
            # NULL skips an optional positional argument (falls back to the
            # function's data-driven default).
            if token.value.upper() == "NULL":
                return None
            return token.value
        raise self._error("expected a literal", token.position)

    # -- SELECT ------------------------------------------------------------------------

    def _parse_select(self) -> LogicalPlan:
        self._expect_keyword("SELECT")
        token = self._peek()

        # SELECT COUNT(*) FROM ...
        if token.type == "KEYWORD" and token.value.upper() == "COUNT":
            self._advance()
            self._expect("LPAREN")
            self._expect("STAR")
            self._expect("RPAREN")
            self._expect_keyword("FROM")
            dataset = self._expect("IDENT").value
            predicates = self._parse_where()
            return CountPlan(dataset, predicates)

        # SELECT FUNC(args...)  -- table-function call.
        if token.type == "IDENT" and self._tokens[self._pos + 1].type == "LPAREN":
            function = self._advance().value.upper()
            self._expect("LPAREN")
            args: list[object] = []
            if self._peek().type != "RPAREN":
                args.append(self._parse_literal())
                while self._peek().type == "COMMA":
                    self._advance()
                    args.append(self._parse_literal())
            self._expect("RPAREN")
            return FunctionPlan(function, tuple(args))

        # SELECT col[, col...] | * FROM dataset ...
        columns: list[str] = []
        if token.type == "STAR":
            self._advance()
            columns = ["*"]
        else:
            columns.append(self._expect("IDENT").value)
            while self._peek().type == "COMMA":
                self._advance()
                columns.append(self._expect("IDENT").value)
        self._expect_keyword("FROM")
        dataset = self._expect("IDENT").value
        predicates = self._parse_where()
        order_by: str | None = None
        descending = False
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._expect("IDENT").value
            if self._accept_keyword("DESC"):
                descending = True
            else:
                self._accept_keyword("ASC")
        limit: object = None
        if self._accept_keyword("LIMIT"):
            if self._peek().type in ("PARAM", "NAMED_PARAM"):
                limit = self._parse_literal()
            else:
                limit = int(_number(self._expect("NUMBER").value))
        return ScanPlan(
            dataset=dataset,
            columns=tuple(columns),
            predicates=predicates,
            order_by=order_by,
            descending=descending,
            limit=limit,
        )

    def _parse_where(self) -> tuple[Comparison, ...]:
        if not self._accept_keyword("WHERE"):
            return ()
        predicates = list(self._parse_predicate())
        while self._accept_keyword("AND"):
            predicates.extend(self._parse_predicate())
        return tuple(predicates)

    def _parse_predicate(self) -> list[Comparison]:
        token = self._peek()
        column = self._expect("IDENT").value
        if column not in _POINT_COLUMNS:
            raise self._error(
                f"unknown column {column!r}; point tables have columns {sorted(_POINT_COLUMNS)}",
                token.position,
            )
        token = self._peek()
        if token.type == "KEYWORD" and token.value.upper() == "BETWEEN":
            self._advance()
            low = self._parse_literal()
            self._expect_keyword("AND")
            high = self._parse_literal()
            return [Comparison(column, ">=", low), Comparison(column, "<=", high)]
        op_map = {"EQ": "=", "NE": "!=", "LT": "<", "GT": ">", "LE": "<=", "GE": ">="}
        if token.type not in op_map:
            raise self._error("expected a comparison operator", token.position)
        self._advance()
        value = self._parse_literal()
        return [Comparison(column, op_map[token.type], value)]


def _number(text: str) -> float | int:
    value = float(text)
    return int(value) if value.is_integer() and "." not in text and "e" not in text.lower() else value


def plan_sql(sql: str) -> LogicalPlan:
    """Parse one SQL statement into its logical plan."""
    return _Parser(tokenize(sql), sql).parse_statement()


def plan_sql_script(sql: str) -> list[LogicalPlan]:
    """Parse a ``;``-separated script into one logical plan per statement.

    Splitting is token-aware: a ``;`` inside a string literal does not end a
    statement (the old string-``split`` behaviour did break on those).
    """
    return _Parser(tokenize(sql), sql).parse_script()
