"""The logical-plan layer shared by the SQL and fluent-Python front-ends.

Both front-ends compile to the same frozen plan dataclasses: the SQL path
parses a statement and lowers the AST (:mod:`repro.sql.planner`), the fluent
path (``conn.dataset("lanes").s2t(sigma=...)``) constructs the node
directly — so ``EXPLAIN`` output, parameter binding and execution behave
identically no matter how a query was written.

A plan may contain :class:`~repro.sql.ast.Parameter` placeholders (``?`` /
``:name``).  :meth:`LogicalPlan.bind` substitutes them and returns a new,
fully-literal plan; :class:`~repro.sql.executor.PlanExecutor` refuses to run
a plan that still has unbound placeholders.

Plans are immutable and comparable — preparing a statement once and
re-binding it per execution is cheap, and tests can assert that two paths
produced *identical* plan objects.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any

from repro.sql.ast import Comparison, Parameter
from repro.sql.errors import SQLBindError

__all__ = [
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
    "bind_for_execution",
    "plan_lines",
]


def _walk_parameters(value: object) -> Iterator[Parameter]:
    if isinstance(value, Parameter):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _walk_parameters(item)
    elif is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            yield from _walk_parameters(getattr(value, f.name))


def _bind_value(value: object, binder: Callable[[Parameter], object]) -> object:
    if isinstance(value, Parameter):
        return binder(value)
    if isinstance(value, tuple):
        return tuple(_bind_value(item, binder) for item in value)
    if is_dataclass(value) and not isinstance(value, type):
        changes = {
            f.name: _bind_value(getattr(value, f.name), binder) for f in fields(value)
        }
        return replace(value, **changes)
    return value


def _format_value(value: object) -> str:
    if isinstance(value, Parameter):
        return value.label
    if isinstance(value, Comparison):
        return f"{value.column} {value.op} {_format_value(value.value)}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_format_value(item) for item in value) + ")"
    return repr(value)


class LogicalPlan:
    """Base class of every plan node.

    Subclasses are frozen dataclasses; equality is structural, which is what
    lets tests assert the SQL and fluent paths compile to *identical* plans.
    """

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def datasets(self) -> tuple[str, ...]:
        """The dataset names the plan reads or writes (for EXPLAIN artifacts
        and prepared-statement generation tracking)."""
        name = getattr(self, "dataset", None)
        if isinstance(name, str):
            return (name,)
        return ()

    def parameters(self) -> tuple[Parameter, ...]:
        """Every unbound placeholder in the plan, in source order."""
        seen: list[Parameter] = []
        for f in fields(self):  # type: ignore[arg-type]
            for param in _walk_parameters(getattr(self, f.name)):
                if param not in seen:
                    seen.append(param)
        return tuple(seen)

    def bind(
        self,
        params: Mapping[str, object] | Sequence[object] | None = None,
    ) -> "LogicalPlan":
        """Substitute parameter placeholders and return the bound plan.

        ``params`` is a mapping for named (``:sigma``) placeholders or a
        sequence for positional (``?``) ones.  Missing or surplus bindings
        raise :class:`~repro.sql.errors.SQLBindError`; a plan with no
        placeholders accepts ``params=None`` unchanged.
        """
        placeholders = self.parameters()
        if not placeholders:
            if params:
                raise SQLBindError(
                    f"statement takes no parameters, got {params!r}"
                )
            return self
        named = {p.name for p in placeholders if p.name is not None}
        positional = [p for p in placeholders if p.index is not None]
        if named and positional:
            raise SQLBindError(
                "statement mixes named (:name) and positional (?) parameters; "
                "use one placeholder style"
            )
        if params is None:
            missing = sorted(named) + [p.label for p in positional]
            raise SQLBindError(f"statement has unbound parameters: {', '.join(missing)}")
        if isinstance(params, (str, bytes)):
            # A lone string is a classic DB-API mistake; binding it
            # character-by-character would be silently wrong.
            raise SQLBindError(
                "bind positional parameters with a list/tuple, not a bare string"
            )
        if isinstance(params, Mapping):
            if positional:
                raise SQLBindError(
                    "statement uses positional '?' parameters; bind with a sequence"
                )
            unknown = set(params) - named
            if unknown:
                raise SQLBindError(
                    f"unknown parameter(s) {sorted(unknown)}; statement declares {sorted(named)}"
                )

            def binder(param: Parameter) -> object:
                if param.name not in params:
                    raise SQLBindError(f"missing value for parameter :{param.name}")
                return params[param.name]

        else:
            if named:
                raise SQLBindError(
                    f"statement uses named parameters {sorted(named)}; bind with a mapping"
                )
            values = list(params)
            if len(values) != len(positional):
                raise SQLBindError(
                    f"statement takes {len(positional)} positional parameter(s), got {len(values)}"
                )

            def binder(param: Parameter) -> object:
                return values[param.index]  # type: ignore[index]

        changes = {
            f.name: _bind_value(getattr(self, f.name), binder)
            for f in fields(self)  # type: ignore[arg-type]
        }
        return replace(self, **changes)  # type: ignore[type-var]

    def describe(self) -> str:
        """One-line rendering of the node for EXPLAIN output."""
        parts = ", ".join(
            f"{f.name}={_format_value(getattr(self, f.name))}"
            for f in fields(self)  # type: ignore[arg-type]
            if not isinstance(getattr(self, f.name), LogicalPlan)
        )
        return f"{type(self).__name__}({parts})"


@dataclass(frozen=True)
class ShowPlan(LogicalPlan):
    """``SHOW DATASETS``"""


@dataclass(frozen=True)
class CreatePlan(LogicalPlan):
    """``CREATE DATASET name``"""

    dataset: str


@dataclass(frozen=True)
class DropPlan(LogicalPlan):
    """``DROP DATASET name``"""

    dataset: str


@dataclass(frozen=True)
class LoadPlan(LogicalPlan):
    """``LOAD DATASET name FROM 'path'``"""

    dataset: str
    path: object


@dataclass(frozen=True)
class InsertPlan(LogicalPlan):
    """``INSERT INTO name VALUES (...), ...``"""

    dataset: str
    rows: tuple[tuple[object, ...], ...]


@dataclass(frozen=True)
class ScanPlan(LogicalPlan):
    """Point-record scan: projection, filters, ordering, limit.

    Without ``order_by`` the scan *streams*: rows are produced lazily from
    the dataset, so a cursor consuming it holds only its bounded buffer.
    """

    dataset: str
    columns: tuple[str, ...] = ("*",)
    predicates: tuple[Comparison, ...] = ()
    order_by: str | None = None
    descending: bool = False
    limit: object = None  # int, or a Parameter until bound


@dataclass(frozen=True)
class CountPlan(LogicalPlan):
    """``SELECT COUNT(*) FROM dataset [WHERE ...]``"""

    dataset: str
    predicates: tuple[Comparison, ...] = ()


@dataclass(frozen=True)
class S2TPlan(LogicalPlan):
    """S2T sub-trajectory clustering (``SELECT S2T(D, sigma, eps, gamma,
    strategy, jobs, partitions)`` / ``conn.dataset(D).s2t(...)``).

    ``partitions`` overrides the temporal partition count of the partitioned
    operator (``None`` keeps the scheduler default); with ``jobs > 1`` each
    partition fits in a worker process over the shared-memory frame
    broadcast.
    """

    dataset: str
    sigma: object = None
    eps: object = None
    gamma: object = 2
    strategy: object = "batched"
    jobs: object = 1
    partitions: object = None


@dataclass(frozen=True)
class QuTPlan(LogicalPlan):
    """QuT query-window clustering (``SELECT QUT(D, Wi, We, tau, delta, t, d,
    gamma)`` / ``conn.dataset(D).qut(wi, we, ...)``)."""

    dataset: str
    wi: object = None
    we: object = None
    tau: object = None
    delta: object = None
    tolerance: object = 0.0
    distance: object = None
    gamma: object = 2


@dataclass(frozen=True)
class FunctionPlan(LogicalPlan):
    """Any other table function (TRACLUS, TOPTICS, CONVOY, SUMMARY, ...)."""

    function: str
    args: tuple[object, ...] = ()

    def datasets(self) -> tuple[str, ...]:
        if self.args and isinstance(self.args[0], str):
            return (self.args[0],)
        return ()


@dataclass(frozen=True)
class ExplainPlan(LogicalPlan):
    """``EXPLAIN <statement>`` — renders the child plan instead of running it."""

    plan: LogicalPlan

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.plan,)

    def datasets(self) -> tuple[str, ...]:
        return self.plan.datasets()


def bind_for_execution(
    plan: LogicalPlan,
    params: Mapping[str, object] | Sequence[object] | None = None,
) -> LogicalPlan:
    """The one bind policy every execution front-end shares.

    ``EXPLAIN`` statements render unbound placeholders as-is, so they bind
    only when the caller supplies values; every other plan must end up
    fully bound (``bind`` raises on missing values).
    """
    if isinstance(plan, ExplainPlan):
        return plan.bind(params) if params is not None else plan
    if params is not None or plan.parameters():
        return plan.bind(params)
    return plan


def plan_lines(plan: LogicalPlan, engine: Any = None) -> list[str]:
    """Render a plan tree as indented text lines.

    With an engine, one ``artifacts[name]: ...`` line per referenced dataset
    is appended, reporting the engine's cached/persisted derived state
    (frame cached? tree cached/persisted? storage partitions?) via
    :meth:`repro.core.engine.HermesEngine.artifact_status`.
    """
    lines: list[str] = []

    def walk(node: LogicalPlan, depth: int) -> None:
        lines.append("  " * depth + node.describe())
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    if engine is not None:
        for name in plan.datasets():
            status = engine.artifact_status(name)
            rendered = " ".join(
                f"{key}={value}" for key, value in status.items() if key != "dataset"
            )
            lines.append(f"artifacts[{name}]: {rendered}")
    return lines
