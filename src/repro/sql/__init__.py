"""SQL front-end.

The paper's point is that the clustering algorithms are callable "via simple
SQL" from inside the DBMS.  This package provides a small SQL engine over
:class:`~repro.core.engine.HermesEngine`, layered as statement → logical
plan → executor:

* a lexer and recursive-descent parser for the supported statement forms,
  including ``EXPLAIN`` and ``:name`` / ``?`` parameter placeholders
  (:mod:`repro.sql.lexer`, :mod:`repro.sql.parser`, :mod:`repro.sql.ast`);
  parse errors carry ``line/col`` positions with a caret snippet;
* the logical-plan layer shared with the fluent Python API
  (:mod:`repro.sql.plan`) and the AST → plan lowering
  (:mod:`repro.sql.planner`);
* a streaming :class:`~repro.sql.executor.PlanExecutor`;
* the table functions of the paper's API — most importantly
  ``SELECT QUT(D, Wi, We, tau, delta, t, d, gamma)`` — plus ``S2T``,
  ``TRACLUS``, ``TOPTICS``, ``CONVOY``, ``SUMMARY``, ``CLUSTER_HISTOGRAM``
  and ``HOLDING_PATTERNS`` (:mod:`repro.sql.functions`).

End users should reach this machinery through :mod:`repro.api`
(``repro.connect()``): connections, cursors and prepared statements all
compile to the plan layer defined here.
"""

from repro.sql.errors import (
    SQLBindError,
    SQLError,
    SQLExecutionError,
    SQLParseError,
)
from repro.sql.executor import PlanExecutor, ResultSet
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
    plan_lines,
)
from repro.sql.planner import plan_sql, plan_sql_script, plan_statement

__all__ = [
    "PlanExecutor",
    "ResultSet",
    "SQLError",
    "SQLParseError",
    "SQLExecutionError",
    "SQLBindError",
    "LogicalPlan",
    "ShowPlan",
    "CreatePlan",
    "DropPlan",
    "LoadPlan",
    "InsertPlan",
    "ScanPlan",
    "CountPlan",
    "S2TPlan",
    "QuTPlan",
    "FunctionPlan",
    "ExplainPlan",
    "plan_lines",
    "plan_statement",
    "plan_sql",
    "plan_sql_script",
]
