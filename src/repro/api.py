"""repro.api — the database-style public API (v1).

The paper demos S2T/QuT clustering as an *in-DBMS* experience: analysts open
a connection, issue SQL, and read clusters back as relations.  This module
is that experience for the reproduction engine::

    import repro

    conn = repro.connect()                      # in-memory engine
    conn = repro.connect("/var/lib/mod-store")  # durable on-disk engine

    cur = conn.cursor()
    cur.execute("SELECT obj_id, t FROM lanes WHERE t >= :t0", {"t0": 120.0})
    while page := cur.fetchmany(500):
        consume(page)                           # bounded memory: one page at a time

    stmt = conn.prepare("SELECT QUT(lanes, :wi, :we)")   # parse + plan once
    rows = stmt.execute({"wi": 0.0, "we": 900.0}).fetchall()

    # The fluent Python path compiles to the *same* plan objects as SQL:
    result = conn.dataset("lanes").s2t(sigma=2.5, jobs=4).run()
    print(conn.dataset("lanes").s2t(sigma=2.5, jobs=4).explain())

Design notes
------------
* Everything lowers to the logical-plan layer (:mod:`repro.sql.plan`); the
  SQL string path and the fluent path produce *identical* plan dataclasses
  and share one :class:`~repro.sql.executor.PlanExecutor` per engine.
* Cursors stream: ``fetchone``/``fetchmany`` pull rows on demand from the
  plan executor's result iterator through a bounded read-ahead buffer, so a
  full relation is only materialised by an explicit ``fetchall`` (or a
  pipeline breaker such as ``ORDER BY``).
* Prepared statements parse and plan once and re-bind cheaply.  Statements
  with no engine side effects (COUNT, pure table functions) additionally
  memoise their results keyed by (bindings, dataset generation tokens) — a
  ``DROP``/``load_mod`` replacement bumps the generation and forces a
  recompute, never a stale answer.  Clustering statements always re-execute
  (running them updates ``engine.last_result``, which downstream functions
  read), and scans always stream.
* The engine holds no locks.  Every connection, cursor, prepared
  statement and dataset over an engine belongs to the thread that created
  the engine, as in :mod:`sqlite3` with ``check_same_thread``: a call from
  any other thread raises :class:`InterfaceError`.  Open one connection
  per thread with :func:`connect`.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.engine import HermesEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ingest import AppendReport
from repro.sql.ast import Comparison
from repro.sql.errors import SQLError
from repro.sql.executor import iter_script
from repro.sql.plan import (
    CountPlan,
    FunctionPlan,
    InsertPlan,
    LoadPlan,
    LogicalPlan,
    QuTPlan,
    S2TPlan,
    ScanPlan,
    bind_for_execution,
    plan_lines,
)
from repro.sql.planner import plan_sql

__all__ = [
    "connect",
    "Connection",
    "Cursor",
    "PreparedStatement",
    "Dataset",
    "Query",
    "InterfaceError",
]

Params = Mapping[str, object] | Sequence[object] | None

# Plan types eligible for prepared-statement result memoisation: their
# execution must be deterministic in the dataset contents alone AND touch no
# engine state besides the dataset.  Clustering plans (S2T/QuT/TRACLUS/...)
# are excluded because running them *writes* ``engine.last_result`` — a
# cache hit would skip that write and make a later CLUSTER_HISTOGRAM
# diverge from the uncached statement sequence.  ScanPlan is excluded so
# scans keep streaming through the cursor's bounded buffer instead of
# pinning whole relations.
_MEMOISABLE_PLANS = (CountPlan, FunctionPlan)
# The FunctionPlan subset that is genuinely side-effect-free and reads only
# the dataset (CLUSTER_HISTOGRAM reads mutable last-result state; the
# clustering functions write it).
_PURE_FUNCTIONS = frozenset({"SUMMARY", "HOLDING_PATTERNS"})
# FIFO cap on memoised (bindings → rows) entries per prepared statement.
_PREPARED_CACHE_SIZE = 32


class InterfaceError(SQLError):
    """Misuse of the connection/cursor lifecycle: use after close, or a
    call from a thread other than the one that created the engine."""


def connect(path: str | Path | None = ":memory:") -> "Connection":
    """Open a connection to an engine.

    ``":memory:"`` (or ``None``) connects to a fresh in-memory engine; any
    other path opens (creating if needed) a durable on-disk engine whose
    datasets and ReTraTrees persist across processes.
    """
    if path is None or str(path) == ":memory:":
        engine = HermesEngine.in_memory()
    else:
        engine = HermesEngine.on_disk(path)
    return Connection(engine=engine, _owns_engine=True)


class Connection:
    """A connection to a :class:`~repro.core.engine.HermesEngine`.

    Multiple connections may wrap one engine (``Connection(engine=...)``);
    they share the engine's plan executor, so INSERT buffering and dataset
    state stay consistent.  ``repro.connect`` creates an owning connection:
    closing it also releases the engine's storage handles.
    """

    def __init__(self, engine: HermesEngine, _owns_engine: bool = False) -> None:
        self._engine = engine
        self._executor = engine.plan_executor()
        self._owns_engine = _owns_engine
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    @property
    def engine(self) -> HermesEngine:
        """The underlying engine (escape hatch for `load_mod` etc.)."""
        return self._engine

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this connection."""
        return self._closed

    def close(self) -> None:
        """Close the connection; an owning connection also closes the engine."""
        if self._closed:
            return
        self._closed = True
        if self._owns_engine:
            self._engine.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")
        if threading.get_ident() != self._engine.thread_id:
            raise InterfaceError(
                f"connection used from thread {threading.get_ident()}, but its "
                f"engine was created in thread {self._engine.thread_id}; "
                "open one connection per thread"
            )

    # -- statement execution --------------------------------------------------------

    def cursor(self) -> "Cursor":
        """A new cursor over this connection."""
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, params: Params = None) -> "Cursor":
        """Shortcut: ``conn.cursor().execute(sql, params)``."""
        return self.cursor().execute(sql, params)

    def executemany(self, sql: str, seq_of_params: Iterable[Params]) -> "Cursor":
        """Shortcut: ``conn.cursor().executemany(sql, seq_of_params)``."""
        return self.cursor().executemany(sql, seq_of_params)

    def executescript(self, sql: str) -> Iterator[list[dict[str, object]]]:
        """Run a ``;``-separated script, yielding one result set at a time.

        Statements execute lazily as the generator is advanced; only the
        current statement's rows are held.  Closing the connection stops the
        script: advancing the generator afterwards raises
        :class:`InterfaceError` instead of executing against closed storage.
        """
        self._check_open()
        inner = iter_script(self._executor, sql)

        def guarded() -> Iterator[list[dict[str, object]]]:
            while True:
                self._check_open()
                try:
                    yield next(inner)
                except StopIteration:
                    return

        return guarded()

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse and plan ``sql`` once, for cheap repeated re-binding."""
        self._check_open()
        return PreparedStatement(self, sql)

    def explain(self, sql: str) -> str:
        """The plan tree (plus cached-artifact info) of a statement.

        Unbound parameters are fine here — they render as ``:name`` / ``?N``
        placeholders.
        """
        self._check_open()
        plan = plan_sql(sql)
        return "\n".join(plan_lines(plan, engine=self._engine))

    # -- integrity ---------------------------------------------------------------

    def verify(self, repair: bool = False):
        """Check the connected engine's durable store for corruption.

        A thin front over :meth:`~repro.core.engine.HermesEngine.verify`
        (the ``repro-fsck`` machinery): scans every dataset's manifest,
        partition checksums and record counts, reporting orphaned files and
        torn or corrupt partitions.  ``repair=True`` additionally
        quarantines what cannot be trusted and reopens the catalog, so the
        connection afterwards serves only verified state.

        Returns the :class:`~repro.storage.fsck.FsckReport`; on an
        in-memory engine the report is trivially clean.
        """
        self._check_open()
        return self._engine.verify(repair=repair)

    # -- fluent Python front-end ---------------------------------------------------

    def dataset(self, name: str) -> "Dataset":
        """Fluent query builder over one dataset (same plans as the SQL path)."""
        self._check_open()
        return Dataset(self, name)


class Cursor:
    """A DB-API-flavoured cursor streaming rows off a bounded buffer.

    ``execute`` hands the cursor a lazily-produced row iterator;
    ``fetchone``/``fetchmany`` refill a small read-ahead buffer on demand
    (never more than ``max(arraysize, size)`` rows), so iterating a large
    scan holds one page, not the relation.  ``max_buffered`` records the
    buffer's high-water mark — the memory-boundedness is observable.
    """

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self.arraysize = 256
        self._source: Iterator[dict[str, object]] | None = None
        self._buffer: deque[dict[str, object]] = deque()
        self._columns: tuple[str, ...] | None = None
        self._fetched = 0
        self._exhausted = False
        self._closed = False
        self.rowcount = -1
        self.max_buffered = 0

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Discard the current result stream and detach the cursor."""
        self._closed = True
        self._source = None
        self._buffer.clear()

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str, params: Params = None) -> "Cursor":
        """Parse, plan, bind and execute one statement on this cursor.

        ``EXPLAIN`` statements render unbound placeholders as-is, so they
        execute without bindings (pass ``params`` to explain a bound plan).
        """
        self._check_open()
        return self.execute_plan(bind_for_execution(plan_sql(sql), params))

    def _reset(
        self,
        source: Iterator[dict[str, object]],
        columns: tuple[str, ...] | None = None,
        rowcount: int = -1,
        exhausted: bool = False,
    ) -> "Cursor":
        """Point the cursor at a new result stream, clearing prior state."""
        self._source = source
        self._columns = columns
        self._buffer.clear()
        self._fetched = 0
        self._exhausted = exhausted
        self.rowcount = rowcount
        self.max_buffered = 0
        return self

    def execute_plan(self, plan: LogicalPlan) -> "Cursor":
        """Execute an already-built (bound) logical plan on this cursor."""
        self._check_open()
        result = self.connection._executor.execute(plan)
        if isinstance(plan, InsertPlan):
            # DB-API convention: rowcount of an INSERT is the number of
            # rows that landed, matching executemany — not the single
            # {'inserted': n} status row.
            rows = list(result)
            total = sum(
                row["inserted"]
                for row in rows
                if isinstance(row.get("inserted"), int)
            )
            return self._reset(iter(rows), columns=result.columns, rowcount=total)
        return self._reset(iter(result), columns=result.columns)

    def executemany(self, sql: str, seq_of_params: Iterable[Params]) -> "Cursor":
        """Execute one statement once per parameter set (plans the SQL once).

        Intended for DML (``INSERT INTO d VALUES (:o, :tr, :x, :y, :t)``);
        per-set result rows are drained and discarded, and ``rowcount``
        accumulates the total inserted-row count where reported.

        An ``INSERT`` template is special-cased: all bound rows collapse
        into one multi-row insert, so the dataset materialises (and, on a
        durable engine, archives to disk) once — not once per row.  The
        collapse also makes the batch all-or-nothing: a bad parameter set
        fails the whole call before any row lands.
        """
        self._check_open()
        template = plan_sql(sql)
        total = 0
        if isinstance(template, InsertPlan):
            rows: list[tuple[object, ...]] = []
            for params in seq_of_params:
                rows.extend(bind_for_execution(template, params).rows)
            if rows:
                merged = InsertPlan(template.dataset, tuple(rows))
                for row in self.connection._executor.execute(merged):
                    value = row.get("inserted")
                    if isinstance(value, int):
                        total += value
        else:
            for params in seq_of_params:
                bound = bind_for_execution(template, params)
                for row in self.connection._executor.execute(bound):
                    value = row.get("inserted")
                    if isinstance(value, int):
                        total += value
        return self._reset(iter(()), rowcount=total, exhausted=True)

    # -- fetching ---------------------------------------------------------------

    def _require_result(self) -> None:
        if self._source is None and not self._exhausted:
            raise InterfaceError("no statement has been executed on this cursor")

    def _fill(self, n: int) -> None:
        """Read ahead until the buffer holds ``n`` rows or the source ends."""
        assert self._source is not None or self._exhausted
        while len(self._buffer) < n and not self._exhausted:
            try:
                self._buffer.append(next(self._source))  # type: ignore[arg-type]
            except StopIteration:
                self._exhausted = True
                self._source = None
                # max(): executemany already recorded an inserted-row total;
                # draining its (empty) result stream must not clobber it.
                self.rowcount = max(self.rowcount, self._fetched + len(self._buffer))
        self.max_buffered = max(self.max_buffered, len(self._buffer))

    def fetchone(self) -> dict[str, object] | None:
        """The next row, or ``None`` when the result is exhausted."""
        self._check_open()
        self._require_result()
        self._fill(1)
        if not self._buffer:
            return None
        self._fetched += 1
        return self._buffer.popleft()

    def fetchmany(self, size: int | None = None) -> list[dict[str, object]]:
        """The next page of up to ``size`` rows (default ``arraysize``)."""
        self._check_open()
        self._require_result()
        size = self.arraysize if size is None else size
        if size <= 0:
            return []
        self._fill(size)
        page = [self._buffer.popleft() for _ in range(min(size, len(self._buffer)))]
        self._fetched += len(page)
        return page

    def fetchall(self) -> list[dict[str, object]]:
        """All remaining rows (materialises the rest of the stream)."""
        self._check_open()
        self._require_result()
        rows = list(self._buffer)
        self._buffer.clear()
        if self._source is not None:
            rows.extend(self._source)
            self._source = None
        self._exhausted = True
        self._fetched += len(rows)
        self.rowcount = max(self.rowcount, self._fetched)
        return rows

    def __iter__(self) -> "Cursor":
        return self

    def __next__(self) -> dict[str, object]:
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- metadata ----------------------------------------------------------------

    @property
    def description(self) -> tuple[tuple, ...] | None:
        """DB-API-style column descriptions ``(name, None, ... )`` or ``None``.

        Derived from the plan's projection when known up front; otherwise
        from the first row (peeked into the buffer without consuming it).
        """
        if self._columns is None:
            if self._source is None and not self._buffer:
                return None
            self._fill(1)
            if not self._buffer:
                return None
            self._columns = tuple(self._buffer[0].keys())
        return tuple((name, None, None, None, None, None, None) for name in self._columns)


#: One memoised prepared-statement result: the generation tokens of every
#: dataset the plan touched at execute time, plus the materialised rows.
_MemoEntry = tuple[tuple[tuple[str, int], ...], list[dict[str, object]]]


class PreparedStatement:
    """A statement parsed and planned once, re-bound per execution.

    ``execute(params)`` binds the cached plan (no re-parse, no re-plan) and
    runs it.  Statements that are deterministic in the dataset alone and
    have no engine side effects (COUNT, pure table functions) additionally
    memoise their materialised result — FIFO-capped, served as row copies —
    keyed by the binding values *and* the generation tokens of every
    dataset the plan touches: replacing a dataset (``DROP`` + reload,
    ``engine.load_mod``) bumps its token, so the next execution recomputes
    instead of serving stale rows.  Clustering statements re-execute every
    time (they update ``engine.last_result``), and point scans stream
    through the cursor's bounded buffer like any other scan.
    """

    def __init__(self, connection: Connection, sql: str) -> None:
        self.connection = connection
        self.sql = sql
        self._plan = plan_sql(sql)
        # Memo cache shared by every cursor this statement hands out.
        self._cache: dict[object, _MemoEntry] = {}

    @property
    def plan(self) -> LogicalPlan:
        """The (possibly parameterised) logical plan."""
        return self._plan

    def parameters(self) -> tuple[str, ...]:
        """Labels of the statement's placeholders (``:sigma``, ``?1``, ...)."""
        return tuple(p.label for p in self._plan.parameters())

    def _bind_key(self, params: Params) -> object | None:
        if params is None:
            key: tuple = ()
        elif isinstance(params, Mapping):
            key = tuple(sorted(params.items()))
        else:
            key = ("?",) + tuple(params)
        try:
            hash(key)
        except TypeError:  # unhashable binding value: skip memoisation
            return None
        return key

    def _generations(self, plan: LogicalPlan) -> tuple[tuple[str, int], ...]:
        return tuple(
            (name, self.connection.engine.dataset_generation(name))
            for name in plan.datasets()
        )

    def _memoisable(self, plan: LogicalPlan) -> bool:
        if not isinstance(plan, _MEMOISABLE_PLANS):
            return False
        if isinstance(plan, FunctionPlan) and plan.function not in _PURE_FUNCTIONS:
            return False
        return True

    def execute(self, params: Params = None) -> Cursor:
        """Bind ``params`` and execute, returning a fresh cursor.

        An ``EXPLAIN`` statement renders unbound placeholders as-is.
        """
        self.connection._check_open()
        if params is not None and not isinstance(params, Mapping):
            # Normalise one-shot iterables up front: bind() would drain
            # them, leaving _bind_key an empty sequence and collapsing
            # every execution onto one cache key.
            params = tuple(params)
        bound = bind_for_execution(self._plan, params)
        cursor = self.connection.cursor()
        if not self._memoisable(bound):
            return cursor.execute_plan(bound)
        key = self._bind_key(params)
        generations = self._generations(bound)
        if key is not None:
            cached = self._cache.get(key)
            if cached is not None and cached[0] == generations:
                # Serve row copies: a caller mutating a fetched dict must
                # never corrupt the memoised result.
                return _preloaded_cursor(cursor, [dict(row) for row in cached[1]])
        rows = list(self.connection._executor.execute(bound))
        if key is not None:
            while len(self._cache) >= _PREPARED_CACHE_SIZE:
                self._cache.pop(next(iter(self._cache)))  # FIFO eviction
            self._cache[key] = (generations, rows)
            return _preloaded_cursor(cursor, [dict(row) for row in rows])
        return _preloaded_cursor(cursor, rows)

    def explain(self) -> str:
        """The plan tree plus cached-artifact info (placeholders allowed)."""
        self.connection._check_open()
        return "\n".join(plan_lines(self._plan, engine=self.connection.engine))


def _preloaded_cursor(cursor: Cursor, rows: list[dict[str, object]]) -> Cursor:
    """Point a cursor at an already-materialised row list."""
    return cursor._reset(iter(rows), rowcount=len(rows))


class Dataset:
    """Fluent query builder over one dataset.

    Every method returns a :class:`Query` wrapping a logical-plan node that
    is *identical* to what the SQL front-end would produce for the
    equivalent statement — same defaults, same field order — so EXPLAIN,
    binding and execution are front-end-agnostic.
    """

    def __init__(self, connection: Connection, name: str) -> None:
        self.connection = connection
        self.name = name

    def s2t(
        self,
        *,
        sigma: object = None,
        eps: object = None,
        gamma: object = 2,
        jobs: object = 1,
        partitions: object = None,
    ) -> "Query":
        """S2T sub-trajectory clustering (``SELECT S2T(D, ...)``).

        ``partitions`` overrides the partitioned operator's temporal
        partition count (the SQL ``partitions`` argument); ``None`` keeps
        the default.
        """
        return Query(
            self.connection,
            S2TPlan(
                dataset=self.name,
                sigma=sigma,
                eps=eps,
                gamma=gamma,
                jobs=jobs,
                partitions=partitions,
            ),
        )

    def qut(
        self,
        wi: object = None,
        we: object = None,
        *,
        tau: object = None,
        delta: object = None,
        tolerance: object = 0.0,
        distance: object = None,
        gamma: object = 2,
    ) -> "Query":
        """QuT window clustering (``SELECT QUT(D, Wi, We, ...)``)."""
        return Query(
            self.connection,
            QuTPlan(
                dataset=self.name,
                wi=wi,
                we=we,
                tau=tau,
                delta=delta,
                tolerance=tolerance,
                distance=distance,
                gamma=gamma,
            ),
        )

    def count(self, where: Iterable[tuple[str, str, object]] = ()) -> "Query":
        """``SELECT COUNT(*) FROM D [WHERE ...]``; ``where`` holds
        ``(column, op, value)`` triples."""
        predicates = tuple(Comparison(c, op, v) for c, op, v in where)
        return Query(self.connection, CountPlan(self.name, predicates))

    def points(
        self,
        *columns: str,
        where: Iterable[tuple[str, str, object]] = (),
        order_by: str | None = None,
        descending: bool = False,
        limit: int | None = None,
    ) -> "Query":
        """Point-record scan (``SELECT cols FROM D ...``); streams when
        ``order_by`` is not requested."""
        predicates = tuple(Comparison(c, op, v) for c, op, v in where)
        return Query(
            self.connection,
            ScanPlan(
                dataset=self.name,
                columns=tuple(columns) if columns else ("*",),
                predicates=predicates,
                order_by=order_by,
                descending=descending,
                limit=limit,
            ),
        )

    def call(self, function: str, *args: object) -> "Query":
        """Any table function: ``call("TRACLUS", 4.0, 3)`` ==
        ``SELECT TRACLUS(D, 4.0, 3)``.

        Routed through the planner's lowering, so ``call("S2T")`` /
        ``call("QUT", ...)`` produce the same typed plan nodes (with the
        same defaults) as the SQL strings and the dedicated
        :meth:`s2t`/:meth:`qut` builders.
        """
        from repro.sql.ast import SelectFunction
        from repro.sql.planner import plan_statement

        statement = SelectFunction(function.upper(), (self.name, *args))
        return Query(self.connection, plan_statement(statement))

    def summary(self) -> "Query":
        """``SELECT SUMMARY(D)``."""
        return self.call("SUMMARY")

    def load(self, path: str | Path) -> "Query":
        """``LOAD DATASET D FROM 'path'``."""
        return Query(self.connection, LoadPlan(self.name, str(path)))

    def append(self, trajectories) -> "AppendReport":
        """Append new trajectories through the ingestion fast path.

        Unlike the other builders this executes immediately (trajectory
        objects are not plan-serialisable): the batch goes straight to
        :meth:`repro.core.engine.HermesEngine.append`, which extends the
        dataset, maintains the cached frame and ReTraTree incrementally,
        bumps the generation token (so memoised prepared-statement results
        over this dataset recompute) and, on a durable engine, commits a
        delta partition.

        Parameters
        ----------
        trajectories:
            An iterable of new :class:`~repro.hermes.trajectory.Trajectory`
            objects, or a delta :class:`~repro.hermes.frame.MODFrame`.

        Returns
        -------
        The engine's :class:`~repro.core.ingest.AppendReport`.

        Raises
        ------
        KeyError
            If the dataset is not registered.
        ValueError
            If a key already exists in the dataset (append SQL point
            records through ``INSERT`` instead, which falls back to a
            rebuild for existing keys).
        """
        self.connection._check_open()
        return self.connection.engine.append(self.name, trajectories)


class Query:
    """A logical plan plus the connection to run it on."""

    def __init__(self, connection: Connection, plan: LogicalPlan) -> None:
        self.connection = connection
        self.plan = plan

    def bind(self, params: Params = None) -> "Query":
        """Substitute parameter placeholders, returning the bound query."""
        return Query(self.connection, self.plan.bind(params))

    def cursor(self) -> Cursor:
        """Execute and return a streaming cursor over the result."""
        return self.connection.cursor().execute_plan(self.plan)

    def run(self) -> list[dict[str, object]]:
        """Execute and materialise the full result list."""
        return self.cursor().fetchall()

    def explain(self) -> str:
        """The plan tree plus cached-artifact info, without executing."""
        self.connection._check_open()
        return "\n".join(plan_lines(self.plan, engine=self.connection.engine))
