"""SQL text to logical plans: the parser's two entry points.

:mod:`repro.sql.parser` builds plan nodes directly; this module is the
public import path of its entry points, which ``repro-sql`` and the tools
that time the front-end use.
"""

from __future__ import annotations

from repro.sql.parser import plan_sql, plan_sql_script

__all__ = ["plan_sql", "plan_sql_script"]
