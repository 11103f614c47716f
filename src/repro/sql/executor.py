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
the dataset's cached frame and ReTraTree are maintained incrementally and,
on a durable engine, the batch commits as a delta partition — nothing is
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

from repro.core.engine import HermesEngine
from repro.core.ingest import AppendBuffer
from repro.hermes.mod import MOD
from repro.sql.ast import Comparison
from repro.sql.errors import SQLBindError, SQLExecutionError
from repro.sql.functions import call_function
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
from repro.sql.planner import plan_sql_script

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
        # two distinct instants, waiting for more INSERTs).
        self._buffers: dict[str, AppendBuffer] = {}
        # Engine *replacement* generation each buffer was last synchronised
        # at; a mismatch means the dataset was replaced (engine.load_mod /
        # drop+reload) and the buffered points belong to the previous
        # incarnation.  Appends — this executor's own or external ones —
        # do not move the replacement generation, so buffered points
        # survive them.
        self._buffer_generation: dict[str, int] = {}

    def forget(self, name: str) -> None:
        """Discard buffered state for a dataset (called by ``engine.drop``)."""
        self._buffers.pop(name, None)
        self._buffer_generation.pop(name, None)

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
        if isinstance(plan, S2TPlan):
            args = (
                plan.dataset,
                plan.sigma,
                plan.eps,
                plan.gamma,
                plan.strategy,
                plan.jobs,
                plan.shards,
            )
            return ResultSet(call_function(self.engine, "S2T", args))
        if isinstance(plan, QuTPlan):
            args = (
                plan.dataset,
                plan.wi,
                plan.we,
                plan.tau,
                plan.delta,
                plan.tolerance,
                plan.distance,
                plan.gamma,
                plan.shards,
            )
            return ResultSet(call_function(self.engine, "QUT", args))
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
        if plan.dataset in self.engine.datasets():
            raise SQLExecutionError(f"dataset {plan.dataset!r} already exists")
        self.engine.load_mod(plan.dataset, MOD(name=plan.dataset))
        self._buffers[plan.dataset] = AppendBuffer()
        self._buffer_generation[plan.dataset] = self.engine.dataset_replacement_generation(
            plan.dataset
        )
        return [{"created": plan.dataset}]

    def _drop(self, plan: DropPlan) -> list[dict[str, object]]:
        if plan.dataset not in self.engine.datasets():
            raise SQLExecutionError(f"unknown dataset {plan.dataset!r}")
        self.engine.drop(plan.dataset)
        self.forget(plan.dataset)
        return [{"dropped": plan.dataset}]

    def _buffer_for(self, name: str) -> AppendBuffer:
        """The dataset's point buffer, discarding it when the dataset was replaced.

        A *replacement*-generation mismatch means the dataset was swapped
        out underneath this executor (``engine.load_mod``, drop +
        recreate); whatever points were buffered belong to the previous
        incarnation and are dropped, exactly as the historical re-seeding
        path dropped them.  Appends deliberately do not trip this check —
        they only add state, so points buffered before an interleaved
        append are still valid and must survive to complete later.
        """
        generation = self.engine.dataset_replacement_generation(name)
        if name not in self._buffers or self._buffer_generation.get(name) != generation:
            self._buffers[name] = AppendBuffer()
            self._buffer_generation[name] = generation
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
        if name not in self.engine.datasets():
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
        mod = self.engine.get_mod(name)
        if any(key in mod for key, _ in coerced):
            return self._insert_rebuild(name, coerced)
        buffer = self._buffer_for(name)
        for (obj_id, traj_id), (t, x, y) in coerced:
            buffer.add_point(obj_id, traj_id, x, y, t)
        completed = buffer.drain_complete()
        if completed:
            # Appends do not move the replacement generation the buffer is
            # keyed on, so the remaining incomplete points survive as-is.
            self.engine.append(name, completed)
        return [{"inserted": len(coerced)}]

    def _insert_rebuild(
        self,
        name: str,
        coerced: list[tuple[tuple[str, str], tuple[float, float, float]]],
    ) -> list[dict[str, object]]:
        """Fallback for inserts that modify existing trajectories.

        Merges the materialised dataset, the buffered incomplete points and
        the statement's rows into one point set and re-materialises it
        through ``engine.load_mod`` — a *replacement* that invalidates the
        frame/tree caches, because existing trajectories changed shape.
        Keys still short of two distinct instants stay buffered.
        """
        buffer = self._buffer_for(name)
        merged: dict[tuple[str, str], list[tuple[float, float, float]]] = defaultdict(list)
        for traj in self.engine.get_mod(name):
            for i in range(traj.num_points):
                merged[(traj.obj_id, traj.traj_id)].append(
                    (float(traj.ts[i]), float(traj.xs[i]), float(traj.ys[i]))
                )
        for key, samples in buffer.pending.items():
            merged[key].extend(samples)
        for key, sample in coerced:
            merged[key].append(sample)
        mod = MOD(name=name)
        leftovers: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
        for key, samples in merged.items():
            traj = AppendBuffer._assemble(key, samples)
            if traj is None:
                leftovers[key] = samples
            else:
                mod.add(traj)
        self.engine.load_mod(name, mod)
        buffer.pending = leftovers
        # Our own replacement: re-key the buffer at the new replacement
        # generation so the leftovers survive it.
        self._buffer_generation[name] = self.engine.dataset_replacement_generation(name)
        return [{"inserted": len(coerced)}]

    # -- queries over point records ------------------------------------------------------------

    def _iter_point_rows(self, mod: MOD) -> Iterator[dict[str, object]]:
        for traj in mod:
            for i in range(traj.num_points):
                yield {
                    "obj_id": traj.obj_id,
                    "traj_id": traj.traj_id,
                    "x": float(traj.xs[i]),
                    "y": float(traj.ys[i]),
                    "t": float(traj.ts[i]),
                }

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
        if plan.dataset not in self.engine.datasets():
            raise SQLExecutionError(f"unknown dataset {plan.dataset!r}")
        self._check_predicates(plan.predicates)
        mod = self.engine.get_mod(plan.dataset)
        count = sum(
            1 for row in self._iter_point_rows(mod) if self._matches(row, plan.predicates)
        )
        return [{"count": count}]

    def _scan(self, plan: ScanPlan) -> ResultSet:
        if plan.dataset not in self.engine.datasets():
            raise SQLExecutionError(f"unknown dataset {plan.dataset!r}")
        columns = _POINT_COLUMNS if plan.columns == ("*",) else plan.columns
        unknown = set(columns) - set(_POINT_COLUMNS)
        if unknown:
            raise SQLExecutionError(f"unknown columns {sorted(unknown)}")
        if plan.order_by is not None and plan.order_by not in _POINT_COLUMNS:
            raise SQLExecutionError(f"unknown ORDER BY column {plan.order_by!r}")
        self._check_predicates(plan.predicates)
        if plan.limit is None:
            limit = None
        elif isinstance(plan.limit, (int, float)):
            limit = int(plan.limit)
            if limit < 0:  # only reachable via a bound :n placeholder
                raise SQLExecutionError(f"LIMIT must be non-negative, got {limit}")
        else:  # a bound :n placeholder may carry anything
            raise SQLExecutionError(f"LIMIT must be numeric, got {plan.limit!r}")
        # Capture the MOD now: a concurrently dropped/replaced dataset does
        # not invalidate rows already flowing through an open cursor.
        mod = self.engine.get_mod(plan.dataset)

        def produce() -> Iterator[dict[str, object]]:
            matching = (
                row for row in self._iter_point_rows(mod) if self._matches(row, plan.predicates)
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
