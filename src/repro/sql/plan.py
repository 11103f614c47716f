"""The logical-plan layer: one representation of every statement.

The parser (:mod:`repro.sql.parser`) builds these frozen dataclasses
directly from SQL text, and the fluent path
(``conn.dataset("lanes").s2t(sigma=...)``) constructs the same nodes — so
``EXPLAIN`` output, parameter binding and execution behave identically no
matter how a query was written.

Every table function call is one :class:`FunctionPlan`, checked against its
row of :data:`SIGNATURES`: the one place that knows each function's argument
names, order and defaults.

A plan may contain :class:`Parameter` placeholders (``?`` / ``:name``).
:meth:`LogicalPlan.bind` substitutes them and returns a new, fully-literal
plan; :class:`~repro.sql.executor.PlanExecutor` refuses to run a plan that
still has unbound placeholders.

Plans are immutable and comparable — preparing a statement once and
re-binding it per execution is cheap, and tests can assert that two paths
produced *identical* plan objects.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any

from repro.sql.errors import SQLBindError, SQLExecutionError

__all__ = [
    "Parameter",
    "Comparison",
    "SIGNATURES",
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
    "bind_for_execution",
    "plan_lines",
]

# Each table function's positional parameters, in call order, with the value
# a NULL or omitted argument takes.  ``None`` leaves the argument to the
# function: a required one (``D``, QUT's ``Wi`` and ``We``) is refused
# there, an optional one falls back to its parameter object's data-driven
# default.
SIGNATURES: dict[str, dict[str, object]] = {
    "QUT": {
        "D": None, "Wi": None, "We": None, "tau": None,
        "delta": None, "t": 0.0, "d": None, "gamma": 2,
    },
    "S2T": {
        "D": None, "sigma": None, "eps": None, "gamma": 2,
        "strategy": "batched", "jobs": 1, "partitions": None,
    },
    "TRACLUS": {"D": None, "eps": None, "min_lns": 3},
    "TOPTICS": {"D": None, "eps_cut": None, "min_pts": 3},
    "CONVOY": {"D": None, "eps": None, "m": 3, "k": 3},
    "SUMMARY": {"D": None},
    "CLUSTER_HISTOGRAM": {"D": None, "n_bins": 60},
    "HOLDING_PATTERNS": {"D": None, "min_turns": 0.9},
}


@dataclass(frozen=True)
class Parameter:
    """A statement parameter placeholder: positional ``?`` or named ``:name``.

    Placeholders survive parsing; they are substituted by
    :meth:`LogicalPlan.bind` before execution.
    """

    index: int | None = None
    name: str | None = None

    @property
    def label(self) -> str:
        """How the placeholder is written in SQL (``:sigma`` / ``?1``)."""
        if self.name is not None:
            return f":{self.name}"
        return f"?{(self.index or 0) + 1}"


@dataclass(frozen=True)
class Comparison:
    """A ``column <op> literal`` predicate (or BETWEEN, expressed as two of these)."""

    column: str
    op: str
    value: object


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
        """The dataset names the plan reads or writes (for EXPLAIN artifacts)."""
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
class FunctionPlan(LogicalPlan):
    """``SELECT F(D, ...)`` — one table function call (QUT, S2T, TRACLUS, ...).

    Constructing the node checks ``args`` against the function's row of
    :data:`SIGNATURES`: surplus arguments are refused, and NULL or omitted
    ones take the table's default.  So ``S2T(d)``, ``S2T(d, NULL)``,
    ``call("S2T")`` and ``s2t()`` are one equal plan, and since binding
    rebuilds the node, a placeholder bound to NULL takes the default too.
    A function the table does not name keeps its arguments as written and
    is refused when executed.
    """

    function: str
    args: tuple[object, ...] = ()

    def __post_init__(self) -> None:
        signature = SIGNATURES.get(self.function)
        if signature is None:
            return
        if len(self.args) > len(signature):
            raise SQLExecutionError(
                f"{self.function} takes at most {len(signature)} arguments, "
                f"got {len(self.args)}: {self.function}({', '.join(signature)})"
            )
        padded = self.args + (None,) * (len(signature) - len(self.args))
        args = tuple(
            default if value is None else value
            for value, default in zip(padded, signature.values())
        )
        object.__setattr__(self, "args", args)

    def datasets(self) -> tuple[str, ...]:
        if self.args and isinstance(self.args[0], str):
            return (self.args[0],)
        return ()

    def describe(self) -> str:
        """``S2T(D='flights', sigma=:sigma, eps=NULL, ...)``: each argument
        named from :data:`SIGNATURES`."""
        values = ["NULL" if value is None else _format_value(value) for value in self.args]
        names = SIGNATURES.get(self.function)
        if names is not None:
            values = [f"{name}={value}" for name, value in zip(names, values)]
        return f"{self.function}({', '.join(values)})"


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
