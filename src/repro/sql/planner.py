"""Lowering of parsed SQL statements into logical plans.

The planner is deliberately thin: the AST is already statement-shaped, so
lowering mostly maps positional table-function arguments onto the typed
fields of the corresponding plan node (``S2TPlan``, ``QuTPlan``), applying
the same defaults the fluent Python API uses — which is what makes the two
front-ends produce identical plan objects.  A table-function call passing
more arguments than its signature (:data:`repro.sql.functions.SIGNATURES`)
is refused here, before anything runs.
"""

from __future__ import annotations

from repro.sql.ast import (
    CreateDataset,
    DropDataset,
    Explain,
    InsertPoints,
    LoadDataset,
    SelectCount,
    SelectFunction,
    SelectPoints,
    ShowDatasets,
    Statement,
)
from repro.sql.errors import SQLExecutionError
from repro.sql.functions import SIGNATURES
from repro.sql.parser import parse, parse_script
from repro.sql.plan import (
    CountPlan,
    CreatePlan,
    DropPlan,
    ExplainPlan,
    FunctionPlan,
    InsertPlan,
    LoadPlan,
    LogicalPlan,
    QuTPlan,
    S2TPlan,
    ScanPlan,
    ShowPlan,
)

__all__ = ["plan_statement", "plan_sql", "plan_sql_script"]


def _arg(args: tuple, idx: int, default: object = None) -> object:
    """Positional argument ``idx`` with ``NULL``/omitted falling back to ``default``."""
    if len(args) <= idx or args[idx] is None:
        return default
    return args[idx]


def _check_arity(function: str, args: tuple) -> None:
    """Refuse a call to a known table function with surplus arguments."""
    params = SIGNATURES.get(function)
    if params is not None and len(args) > len(params):
        raise SQLExecutionError(
            f"{function} takes at most {len(params)} arguments, got {len(args)}: "
            f"{function}({', '.join(params)})"
        )


def plan_statement(statement: Statement) -> LogicalPlan:
    """Lower one parsed statement into its logical plan."""
    if isinstance(statement, Explain):
        return ExplainPlan(plan_statement(statement.statement))
    if isinstance(statement, ShowDatasets):
        return ShowPlan()
    if isinstance(statement, CreateDataset):
        return CreatePlan(statement.name)
    if isinstance(statement, DropDataset):
        return DropPlan(statement.name)
    if isinstance(statement, LoadDataset):
        return LoadPlan(statement.name, statement.path)
    if isinstance(statement, InsertPoints):
        return InsertPlan(statement.dataset, statement.rows)
    if isinstance(statement, SelectCount):
        return CountPlan(statement.dataset, statement.predicates)
    if isinstance(statement, SelectPoints):
        return ScanPlan(
            dataset=statement.dataset,
            columns=statement.columns,
            predicates=statement.predicates,
            order_by=statement.order_by,
            descending=statement.descending,
            limit=statement.limit,
        )
    if isinstance(statement, SelectFunction):
        args = statement.args
        _check_arity(statement.function, args)
        if statement.function == "S2T":
            return S2TPlan(
                dataset=_arg(args, 0),
                sigma=_arg(args, 1),
                eps=_arg(args, 2),
                gamma=_arg(args, 3, 2),
                strategy=_arg(args, 4, "batched"),
                jobs=_arg(args, 5, 1),
                partitions=_arg(args, 6),
            )
        if statement.function == "QUT":
            return QuTPlan(
                dataset=_arg(args, 0),
                wi=_arg(args, 1),
                we=_arg(args, 2),
                tau=_arg(args, 3),
                delta=_arg(args, 4),
                tolerance=_arg(args, 5, 0.0),
                distance=_arg(args, 6),
                gamma=_arg(args, 7, 2),
            )
        return FunctionPlan(statement.function, args)
    raise SQLExecutionError(f"unsupported statement {statement!r}")


def plan_sql(sql: str) -> LogicalPlan:
    """Parse and lower one SQL statement."""
    return plan_statement(parse(sql))


def plan_sql_script(sql: str) -> list[LogicalPlan]:
    """Parse and lower a ``;``-separated script, one plan per statement."""
    return [plan_statement(statement) for statement in parse_script(sql)]
