"""SQL front-end.

The paper's point is that the clustering algorithms are callable "via simple
SQL" from inside the DBMS.  This package provides a small SQL engine over
:class:`~repro.core.engine.HermesEngine`, layered as statement → logical
plan → executor, with one representation per statement — its plan:

* a lexer and recursive-descent parser that builds plan nodes directly,
  including ``EXPLAIN`` and ``:name`` / ``?`` parameter placeholders
  (:mod:`repro.sql.lexer`, :mod:`repro.sql.parser`; ``plan_sql`` and
  ``plan_sql_script`` are also importable from :mod:`repro.sql.planner`);
  parse errors carry ``line/col`` positions with a caret snippet;
* the logical-plan layer shared with the fluent Python API
  (:mod:`repro.sql.plan`), whose ``SIGNATURES`` table holds every table
  function's argument names, order and defaults;
* a streaming :class:`~repro.sql.executor.PlanExecutor`;
* the table functions of the paper's API — most importantly
  ``SELECT QUT(D, Wi, We, tau, delta, t, d, gamma)`` — plus ``S2T``,
  ``TRACLUS``, ``TOPTICS``, ``CONVOY``, ``SUMMARY``, ``CLUSTER_HISTOGRAM``
  and ``HOLDING_PATTERNS`` (:mod:`repro.sql.functions`), each one
  :class:`~repro.sql.plan.FunctionPlan`.

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
from repro.sql.parser import plan_sql, plan_sql_script
from repro.sql.plan import (
    SIGNATURES,
    CountPlan,
    CreatePlan,
    DropPlan,
    ExplainPlan,
    FunctionPlan,
    InsertPlan,
    LoadPlan,
    LogicalPlan,
    ScanPlan,
    ShowPlan,
    plan_lines,
)

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
    "FunctionPlan",
    "ExplainPlan",
    "SIGNATURES",
    "plan_lines",
    "plan_sql",
    "plan_sql_script",
]
