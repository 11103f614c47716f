"""Bounded interprocedural summaries: the exception types that escape.

A *summary* condenses what a function does to a fact its callers can
consume without re-analysing the body.  The summary here (REPRO111) is
the set of exception types a function can let escape: its own ``raise``
sites minus the types its enclosing ``try`` blocks catch, plus its
callees' escaping sets filtered the same way at each call site.  It is
computed as a bounded fixpoint over the
:class:`~repro.analysis.flow.callgraph.CallGraph`.

The fixpoint is *bounded* (:data:`FIXPOINT_BOUND` rounds): facts
propagate at most that many call-graph edges deep per round and the sets
only grow, so the iteration terminates early on real code and degrades
to an under-approximation — never a spurious finding — on pathological
call cycles.  Unknown callees
(:data:`~repro.analysis.flow.callgraph.TOP`) contribute no facts, by the
same no-false-positives principle.

:class:`ProjectIndex` is the façade the project checkers share: one
instance per lint run indexes the modules, builds the call graph and
serves the summary table.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass

from repro.analysis.base import SourceModule
from repro.analysis.flow.callgraph import TOP, CallGraph, FunctionInfo
from repro.analysis.flow.cfg import walk_expressions

__all__ = [
    "FIXPOINT_BOUND",
    "EscapingRaise",
    "ProjectIndex",
]

#: Maximum fixpoint rounds.  Real call chains in this codebase are 3-4
#: frames deep; the bound only exists so a pathological cycle cannot
#: stall the linter.
FIXPOINT_BOUND = 12


@dataclass(frozen=True)
class EscapingRaise:
    """One exception type escaping a function, with its origin site."""

    type_id: str
    display: str
    path: str
    line: int
    origin: str


class ProjectIndex:
    """Shared per-run index: modules, call graph and summaries."""

    def __init__(self, modules: list[SourceModule]) -> None:
        self.modules = modules
        self.graph = CallGraph.build(modules)
        self._raise_summaries: dict[str, frozenset[EscapingRaise]] | None = None
        #: Exception-class ancestry: type id → ids of all (transitive) bases.
        self._ancestors: dict[str, frozenset[str]] = {}

    # -- exception-type resolution ----------------------------------------------

    def _builtin_exception(self, name: str) -> bool:
        candidate = getattr(builtins, name, None)
        return isinstance(candidate, type) and issubclass(candidate, BaseException)

    def _class_id(self, module: SourceModule, cls: ast.ClassDef) -> str:
        return f"{'/'.join(module.logical_parts)}::{cls.name}"

    def resolve_exception_type(self, module: SourceModule, expr: ast.expr) -> str | None:
        """An exception expression → type id, or ``None`` when dynamic.

        Type ids are builtin names (``"RuntimeError"``) or project class
        ids (``"storage/errors.py::StorageError"``).  Accepts the raised
        expression directly or a ``Call`` constructing it.
        """
        if isinstance(expr, ast.Call):
            expr = expr.func
        resolved = self.graph.resolve_class(module, expr)
        if isinstance(resolved, tuple):
            owner, cls = resolved
            return self._class_id(owner, cls)
        if isinstance(resolved, str):
            return resolved if self._builtin_exception(resolved) else None
        return None

    def exception_ancestors(self, type_id: str) -> frozenset[str]:
        """All base-type ids of ``type_id``, itself included."""
        cached = self._ancestors.get(type_id)
        if cached is not None:
            return cached
        self._ancestors[type_id] = frozenset({type_id})  # cycle guard
        ancestors = {type_id}
        if "::" in type_id:
            located = self.graph.class_by_id(type_id)
            if located is not None:
                module, cls = located
                for base in cls.bases:
                    base_id = self.resolve_exception_type(module, base)
                    if base_id is not None:
                        ancestors |= self.exception_ancestors(base_id)
        else:
            candidate = getattr(builtins, type_id, None)
            if isinstance(candidate, type):
                ancestors |= {
                    base.__name__
                    for base in candidate.__mro__
                    if issubclass(base, BaseException)
                }
        result = frozenset(ancestors)
        self._ancestors[type_id] = result
        return result

    def is_exception_subtype(self, type_id: str, catch_id: str) -> bool:
        """Whether ``type_id`` is caught by ``except <catch_id>``."""
        return catch_id in self.exception_ancestors(type_id)

    # -- escaping-raise summaries -------------------------------------------------

    def escaping_raises(self) -> dict[str, frozenset[EscapingRaise]]:
        """Function qualname → exception types it can let escape."""
        if self._raise_summaries is not None:
            return self._raise_summaries
        collectors = {
            qualname: _RaiseCollector(self, info)
            for qualname, info in self.graph.functions.items()
        }
        summaries: dict[str, frozenset[EscapingRaise]] = {
            qualname: frozenset(c.own) for qualname, c in collectors.items()
        }
        for _ in range(FIXPOINT_BOUND):
            changed = False
            for qualname, collector in collectors.items():
                inherited: set[EscapingRaise] = set(summaries[qualname])
                for target, catchers in collector.calls:
                    for escaped in summaries.get(target, ()):
                        if not _caught(self, escaped.type_id, catchers):
                            inherited.add(escaped)
                frozen = frozenset(inherited)
                if frozen != summaries[qualname]:
                    summaries[qualname] = frozen
                    changed = True
            if not changed:
                break
        self._raise_summaries = summaries
        return summaries


#: A catcher frame: the type ids one ``try`` statement's handlers catch;
#: ``None`` inside the tuple marks a catch-all (bare ``except``).
_Catchers = tuple[tuple[str | None, ...], ...]


def _caught(index: ProjectIndex, type_id: str, catchers: _Catchers) -> bool:
    for frame in catchers:
        for catch_id in frame:
            if catch_id is None:
                return True
            if index.is_exception_subtype(type_id, catch_id):
                return True
    return False


class _RaiseCollector:
    """Collect one function's raise sites and call sites with try context."""

    def __init__(self, index: ProjectIndex, info: FunctionInfo) -> None:
        self.index = index
        self.info = info
        self.own: list[EscapingRaise] = []
        #: ``(callee qualname, enclosing catcher frames)`` per project call.
        self.calls: list[tuple[str, _Catchers]] = []
        self._walk(info.node.body, (), None)

    def _handler_types(self, handler: ast.ExceptHandler) -> tuple[str | None, ...]:
        if handler.type is None:
            return (None,)
        exprs = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return tuple(
            self.index.resolve_exception_type(self.info.module, expr) or None
            for expr in exprs
        )

    def _record_raise(self, type_id: str | None, node: ast.AST, catchers: _Catchers) -> None:
        if type_id is None or _caught(self.index, type_id, catchers):
            return
        display = type_id.rsplit("::", 1)[-1] if "::" in type_id else type_id
        self.own.append(
            EscapingRaise(
                type_id=type_id,
                display=display,
                path=str(self.info.module.path),
                line=getattr(node, "lineno", self.info.node.lineno),
                origin=self.info.qualname,
            )
        )

    def _walk(
        self,
        stmts: list[ast.stmt],
        catchers: _Catchers,
        current_handler: tuple[str | None, ...] | None,
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Raise):
                if stmt.exc is None:
                    # Bare re-raise: escapes with the caught types.
                    for type_id in current_handler or ():
                        self._record_raise(type_id, stmt, catchers)
                else:
                    type_id = self.index.resolve_exception_type(
                        self.info.module, stmt.exc
                    )
                    self._record_raise(type_id, stmt, catchers)
                self._collect_calls(stmt, catchers)
            elif isinstance(stmt, ast.Try):
                frame = tuple(self._handler_types(h) for h in stmt.handlers)
                body_catchers = catchers + tuple(frame) if frame else catchers
                self._walk(stmt.body, body_catchers, current_handler)
                # else/finally/handler bodies: this try's handlers no
                # longer apply; a handler body knows what it caught so a
                # bare ``raise`` can be resolved.
                self._walk(stmt.orelse, catchers, current_handler)
                for handler, types in zip(stmt.handlers, frame):
                    self._walk(handler.body, catchers, types)
                self._walk(stmt.finalbody, catchers, current_handler)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested definitions raise at their own call sites
            else:
                self._collect_calls(stmt, catchers)
                for body in self._nested_bodies(stmt):
                    self._walk(body, catchers, current_handler)

    @staticmethod
    def _nested_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        bodies: list[list[ast.stmt]] = []
        for name in ("body", "orelse", "finalbody"):
            block = getattr(stmt, name, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                bodies.append(block)
        return bodies

    def _collect_calls(self, stmt: ast.stmt, catchers: _Catchers) -> None:
        own_exprs: list[ast.AST] = []
        if self._nested_bodies(stmt):
            # Compound statement: only its header expressions execute at
            # this level; body statements are walked separately.
            for _, value in ast.iter_fields(stmt):
                if isinstance(value, ast.expr):
                    own_exprs.append(value)
            for item in getattr(stmt, "items", []) or []:
                own_exprs.append(item.context_expr)
        else:
            own_exprs.append(stmt)
        for expr in own_exprs:
            for node in walk_expressions(expr):
                if isinstance(node, ast.Call):
                    targets = self.index.graph.resolve_call(self.info, node)
                    if targets is TOP:
                        continue
                    for target in targets:  # type: ignore[union-attr]
                        self.calls.append((target, catchers))
