"""Plan execution against a :class:`~repro.core.engine.HermesEngine`.

:class:`PlanExecutor` runs *logical plans* (:mod:`repro.sql.plan`) and
returns a streaming :class:`ResultSet`.  It is the single executor under
both front-ends: the SQL string path and the fluent Python path compile to
the same plan objects and land here; :class:`repro.api.Connection` is the
one SQL entry point above it.

``INSERT INTO`` point buffering lives on the :class:`PlanExecutor` (one per
engine, shared by every connection over that engine): records for datasets
declared with ``CREATE DATASET`` become trajectories as soon as an object
has at least two samples.  Completed trajectories whose keys are *new* take
the **append path** (:meth:`repro.core.engine.HermesEngine.append`):
one concatenation makes the dataset's new frame, its ReTraTree is
maintained incrementally and, on a durable engine, the batch commits as a delta partition — nothing is
invalidated or rebuilt.  A statement that adds points to an *existing*
trajectory falls back to the historical full re-materialisation (a
replacement, which invalidates caches), since changing a trajectory's
samples cannot be expressed as an append.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from collections.abc import Iterable, Iterator
from typing import Any

from repro.core.engine import HermesEngine
from repro.core.ingest import AppendBuffer
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.sql.errors import SQLBindError, SQLExecutionError
from repro.sql.functions import call_function
from repro.sql.parser import plan_sql_script
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
    ScanPlan,
    ShowPlan,
    plan_lines,
)
from repro.storage.errors import CorruptManifestError

__all__ = ["ResultSet", "PlanExecutor", "iter_script"]

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

_POINT_COLUMNS = ("obj_id", "traj_id", "x", "y", "t")


class ResultSet:
    """The rows one plan execution produces, consumed as an iterator.

    Statement results stream: a :class:`ResultSet` backed by a generator
    (e.g. an unordered point scan) produces rows on demand, so a cursor
    reading it holds only its own bounded buffer, never the full relation.
    ``columns`` is the projection when it is known up front (scans), else
    ``None`` until a consumer derives it from the first row.
    """

    def __init__(
        self,
        rows: Iterable[dict[str, object]],
        columns: tuple[str, ...] | None = None,
    ) -> None:
        self._rows = iter(rows)
        self.columns = columns

    def __iter__(self) -> Iterator[dict[str, object]]:
        return self._rows

    def __next__(self) -> dict[str, object]:
        return next(self._rows)

    def fetchall(self) -> list[dict[str, object]]:
        """Drain the remaining rows into a list."""
        return list(self._rows)


class PlanExecutor:
    """Executes logical plans, returning streaming result sets.

    Also owns the `INSERT INTO` point buffers for datasets that were
    declared with ``CREATE DATASET`` but not yet materialised as
    trajectories.  There is one executor per engine (see
    :meth:`repro.core.engine.HermesEngine.plan_executor`), so every
    connection and cursor over that engine shares the same buffered state.
    """

    def __init__(self, engine: HermesEngine) -> None:
        self.engine = engine
        # Not-yet-complete point records per dataset (keys with fewer than
        # two distinct instants, waiting for more INSERTs).  Appends leave
        # them alone; a replacement or drop of the dataset discards them.
        self._buffers: dict[str, AppendBuffer] = {}

    def forget(self, name: str) -> None:
        """Discard buffered state for a dataset (the engine calls this on
        every ``load_mod`` and ``drop``: the points belong to the
        registration being replaced)."""
        self._buffers.pop(name, None)

    # -- dispatch --------------------------------------------------------------------

    def execute(self, plan: LogicalPlan) -> ResultSet:
        """Execute one bound plan and return its (possibly streaming) rows."""
        if isinstance(plan, ExplainPlan):
            # EXPLAIN renders rather than runs, so unbound placeholders are
            # fine — they show up as :name / ?N in the plan text.
            lines = plan_lines(plan.plan, engine=self.engine)
            return ResultSet(({"plan": line} for line in lines), columns=("plan",))
        unbound = plan.parameters()
        if unbound:
            labels = ", ".join(p.label for p in unbound)
            raise SQLBindError(f"statement has unbound parameters: {labels}")
        if isinstance(plan, ShowPlan):
            return ResultSet(self._show_datasets())
        if isinstance(plan, CreatePlan):
            return ResultSet(self._create(plan))
        if isinstance(plan, DropPlan):
            return ResultSet(self._drop(plan))
        if isinstance(plan, LoadPlan):
            mod = self.engine.load_csv(plan.dataset, str(plan.path))
            return ResultSet([{"dataset": plan.dataset, "trajectories": len(mod)}])
        if isinstance(plan, InsertPlan):
            return ResultSet(self._insert(plan))
        if isinstance(plan, CountPlan):
            return ResultSet(self._count(plan))
        if isinstance(plan, ScanPlan):
            return self._scan(plan)
        if isinstance(plan, FunctionPlan):
            return ResultSet(call_function(self.engine, plan.function, plan.args))
        raise SQLExecutionError(f"unsupported plan {plan!r}")

    def _show_datasets(self) -> list[dict[str, object]]:
        """``SHOW DATASETS`` rows.

        On a durable (``on_disk``) engine each row also reports whether the
        dataset has a manifest on disk — i.e. whether a cold process would
        recover it; in-memory engines keep the legacy single-column shape.
        """
        if self.engine.storage_directory is None:
            return [{"dataset": name} for name in self.engine.datasets()]
        return [
            {"dataset": name, "persisted": self.engine.is_persisted(name)}
            for name in self.engine.datasets()
        ]

    # -- DDL / DML ------------------------------------------------------------------------

    def _create(self, plan: CreatePlan) -> list[dict[str, object]]:
        if self.engine.resolve(plan.dataset):
            raise SQLExecutionError(f"dataset {plan.dataset!r} already exists")
        self.engine.load_mod(plan.dataset, MOD(name=plan.dataset))
        return [{"created": plan.dataset}]

    def _drop(self, plan: DropPlan) -> list[dict[str, object]]:
        try:
            known = self.engine.resolve(plan.dataset)
        except CorruptManifestError:
            known = True  # a dataset withheld as damaged is given up
        if not known:
            raise SQLExecutionError(f"unknown dataset {plan.dataset!r}")
        self.engine.drop(plan.dataset)
        return [{"dropped": plan.dataset}]

    def _buffer_for(self, name: str) -> AppendBuffer:
        """The dataset's point buffer, empty after a replacement or drop (:meth:`forget`)."""
        if name not in self._buffers:
            self._buffers[name] = AppendBuffer()
        return self._buffers[name]

    def _insert(self, plan: InsertPlan) -> list[dict[str, object]]:
        """``INSERT INTO``: append-path for new trajectories, rebuild otherwise.

        Every row is validated before any state changes (a bad row fails
        the whole statement).  Rows targeting keys *not yet in the dataset*
        are buffered until a key has two distinct instants and then
        **appended** (:meth:`repro.core.engine.HermesEngine.append`) —
        caches are maintained, not invalidated, and a durable engine
        commits one delta partition per statement.  Rows that add points to
        an existing trajectory force the fallback full re-materialisation
        (:meth:`_insert_rebuild`).  Ingestion scripts should batch rows into
        multi-row ``INSERT INTO d VALUES (...), (...), ...`` statements:
        each *statement* is one append commit, like a DBMS transaction.
        """
        name = plan.dataset
        if not self.engine.resolve(name):
            raise SQLExecutionError(f"unknown dataset {name!r}; CREATE DATASET it first")
        coerced: list[tuple[tuple[str, str], tuple[float, float, float]]] = []
        for row in plan.rows:
            if len(row) != 5:
                raise SQLExecutionError(
                    "INSERT rows must be (obj_id, traj_id, x, y, t); got "
                    f"{len(row)} values"
                )
            obj_id, traj_id, x, y, t = row
            try:
                sample = (float(t), float(x), float(y))
            except (TypeError, ValueError) as exc:
                raise SQLExecutionError(
                    f"INSERT x/y/t values must be numeric; bad row {row!r}"
                ) from exc
            if not all(map(math.isfinite, sample)):
                raise SQLExecutionError(f"INSERT x/y/t values must be finite; bad row {row!r}")
            coerced.append(((str(obj_id), str(traj_id)), sample))
        frame = self.engine.frame(name)
        if any(frame.maybe_row_of(key) is not None for key, _ in coerced):
            return self._insert_rebuild(name, coerced)
        buffer = self._buffer_for(name)
        try:
            buffer.extend(coerced)
        except ValueError as exc:
            raise SQLExecutionError(f"INSERT refused: {exc}") from exc
        completed = buffer.drain_complete()
        if completed:
            # An append does not forget the buffer, so the remaining
            # incomplete points survive it as-is.
            self.engine.append(name, completed)
        return [{"inserted": len(coerced)}]

    def _insert_rebuild(
        self,
        name: str,
        coerced: list[tuple[tuple[str, str], tuple[float, float, float]]],
    ) -> list[dict[str, object]]:
        """Fallback for inserts that modify existing trajectories.

        Merges the dataset's frame, the buffered incomplete points and
        the statement's rows into one point set and re-materialises it
        through ``engine.load_mod`` — a *replacement* that invalidates the
        frame/tree caches, because existing trajectories changed shape.
        Keys still short of two distinct instants stay buffered.
        """
        buffer = self._buffer_for(name)
        merged: dict[tuple[str, str], list[tuple[float, float, float]]] = defaultdict(list)
        for row in self._iter_point_rows(self.engine.frame(name)):
            merged[(row["obj_id"], row["traj_id"])].append((row["t"], row["x"], row["y"]))
        for key, samples in buffer.pending.items():
            merged[key].extend(samples)
        for key, sample in coerced:
            merged[key].append(sample)
        mod = MOD(name=name)
        leftovers: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
        for key, samples in merged.items():
            try:
                traj = AppendBuffer._assemble(key, samples)
            except ValueError as exc:
                raise SQLExecutionError(f"INSERT refused: {exc}") from exc
            if traj is None:
                leftovers[key] = samples
            else:
                mod.add(traj)
        self.engine.load_mod(name, mod)
        # Our own replacement forgot the buffer: re-attach the leftovers.
        self._buffer_for(name).pending = leftovers
        return [{"inserted": len(coerced)}]

    # -- queries over point records ------------------------------------------------------------

    @staticmethod
    def _iter_point_rows(frame: MODFrame) -> Iterator[dict[str, Any]]:
        """One row per sample of ``frame``, in row order, read from its columns."""
        offsets = frame.offsets.tolist()
        for row, (obj_id, traj_id) in enumerate(frame.keys):
            lo, hi = offsets[row], offsets[row + 1]
            for x, y, t in zip(frame.xs[lo:hi].tolist(), frame.ys[lo:hi].tolist(), frame.ts[lo:hi].tolist()):
                yield {"obj_id": obj_id, "traj_id": traj_id, "x": x, "y": y, "t": t}

    @staticmethod
    def _check_predicates(predicates: tuple[Comparison, ...]) -> None:
        """Reject unknown columns/operators before any row streams.

        The SQL parser already validates these, but the fluent path builds
        ``Comparison`` triples directly — without this check a typo would
        surface as a bare ``KeyError`` mid-fetch instead of an SQL error at
        execute time.
        """
        for pred in predicates:
            if pred.column not in _POINT_COLUMNS:
                raise SQLExecutionError(
                    f"unknown predicate column {pred.column!r}; point tables "
                    f"have columns {sorted(_POINT_COLUMNS)}"
                )
            if pred.op not in _OPERATORS:
                raise SQLExecutionError(
                    f"unknown operator {pred.op!r}; supported: {sorted(_OPERATORS)}"
                )

    @staticmethod
    def _matches(row: dict[str, object], predicates: tuple[Comparison, ...]) -> bool:
        for pred in predicates:
            op = _OPERATORS[pred.op]
            try:
                if not op(row[pred.column], pred.value):
                    return False
            except TypeError as exc:
                # Bound parameters can smuggle arbitrary objects into
                # predicates; surface an SQL error, not a bare TypeError
                # deep inside a fetch.
                raise SQLExecutionError(
                    f"cannot compare column {pred.column!r} with {pred.value!r}"
                ) from exc
        return True

    def _count(self, plan: CountPlan) -> list[dict[str, object]]:
        if not self.engine.resolve(plan.dataset):
            raise SQLExecutionError(f"unknown dataset {plan.dataset!r}")
        self._check_predicates(plan.predicates)
        frame = self.engine.frame(plan.dataset)
        count = sum(
            1 for row in self._iter_point_rows(frame) if self._matches(row, plan.predicates)
        )
        return [{"count": count}]

    def _scan(self, plan: ScanPlan) -> ResultSet:
        if not self.engine.resolve(plan.dataset):
            raise SQLExecutionError(f"unknown dataset {plan.dataset!r}")
        columns = _POINT_COLUMNS if plan.columns == ("*",) else plan.columns
        unknown = set(columns) - set(_POINT_COLUMNS)
        if unknown:
            raise SQLExecutionError(f"unknown columns {sorted(unknown)}")
        if plan.order_by is not None and plan.order_by not in _POINT_COLUMNS:
            raise SQLExecutionError(f"unknown ORDER BY column {plan.order_by!r}")
        self._check_predicates(plan.predicates)
        # A bound placeholder or the fluent ``points(limit=...)`` may carry
        # anything; only a non-negative integral number is a row count.
        limit = plan.limit
        if limit is not None:
            integral = isinstance(limit, int) or (isinstance(limit, float) and limit.is_integer())
            if isinstance(limit, bool) or not integral or limit < 0:
                raise SQLExecutionError(f"LIMIT must be a non-negative integer, got {limit!r}")
            limit = int(limit)
        # Capture the frame now: it never changes, so an append, drop or
        # replacement does not reach rows already flowing through an open
        # cursor.
        frame = self.engine.frame(plan.dataset)

        def produce() -> Iterator[dict[str, object]]:
            matching = (
                row for row in self._iter_point_rows(frame) if self._matches(row, plan.predicates)
            )
            if plan.order_by is not None:
                # Ordering is a pipeline breaker: materialise, sort, re-stream.
                rows = sorted(
                    matching, key=lambda r: r[plan.order_by], reverse=plan.descending
                )
                matching = iter(rows)
            produced = 0
            for row in matching:
                if limit is not None and produced >= limit:
                    return
                produced += 1
                yield {col: row[col] for col in columns}

        return ResultSet(produce(), columns=tuple(columns))


def iter_script(
    executor: "PlanExecutor", sql: str
) -> Iterator[list[dict[str, object]]]:
    """Run a ``;``-separated script, yielding one result set at a time.

    The script is parsed up front (so syntax errors surface before any
    statement runs), but each statement only *executes* when the generator
    is advanced, and only its own result rows are held — a multi-statement
    script never keeps every statement's full result set alive at once.
    Statement splitting is token-aware; ``;`` inside string literals is
    data, not a separator.  Behind
    :meth:`repro.api.Connection.executescript`.
    """
    plans = plan_sql_script(sql)

    def run() -> Iterator[list[dict[str, object]]]:
        for plan in plans:
            yield list(executor.execute(plan))

    return run()
