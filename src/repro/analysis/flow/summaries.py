"""Bounded interprocedural summaries: lock obligations and escaping raises.

A *summary* condenses what a function does to a fact its callers can
consume without re-analysing the body.  Two summary domains live here,
both computed as bounded fixpoints over the
:class:`~repro.analysis.flow.callgraph.CallGraph`:

* **Lock obligations** (REPRO110).  An obligation is one access to a
  ``# guarded-by:`` attribute that the function does not protect itself
  — the lock is not in the must-held set at the access.  Obligations
  propagate caller-ward: a call site that holds the required lock
  *discharges* the callee's obligation; one that does not re-exports it.
  Whatever reaches an entry point unprotected is a race finding.  The
  declaration vocabulary (``# guarded-by:``, ``# holds:``) is parsed here
  too, by :func:`guarded_attributes` and :func:`declared_holds`.

* **Escaping raises** (REPRO111).  The set of exception types a
  function can let escape: its own ``raise`` sites minus the types its
  enclosing ``try`` blocks catch, plus its callees' escaping sets
  filtered the same way at each call site.

Both fixpoints are *bounded* (:data:`FIXPOINT_BOUND` rounds): facts
propagate at most that many call-graph edges deep per round and the sets
only grow, so the iteration terminates early on real code and degrades
to an under-approximation — never a spurious finding — on pathological
call cycles.  Unknown callees
(:data:`~repro.analysis.flow.callgraph.TOP`) contribute no facts, by the
same no-false-positives principle.

:class:`ProjectIndex` is the façade the checkers share: one instance per
lint run indexes the modules, builds the call graph, caches per-function
CFG/lock-set results and serves both summary tables.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field

from repro.analysis.base import SourceModule
from repro.analysis.flow.callgraph import TOP, CallGraph, FunctionInfo
from repro.analysis.flow.cfg import Step, WithEnter, WithExit, build_cfg, walk_expressions
from repro.analysis.flow.lockset import locks_at_steps, self_attr

__all__ = [
    "FIXPOINT_BOUND",
    "EscapingRaise",
    "LockObligation",
    "ProjectIndex",
    "declared_holds",
    "guarded_attributes",
]

#: Maximum fixpoint rounds for either summary domain.  Real call chains
#: in this codebase are 3-4 frames deep; the bound only exists so a
#: pathological cycle cannot stall the linter.
FIXPOINT_BOUND = 12


@dataclass(frozen=True)
class LockObligation:
    """One unprotected access to a guarded attribute.

    ``path``/``line`` anchor the access site; ``via`` names the function
    the access lives in (where the fix usually belongs); ``kind`` is
    ``"write"`` or ``"read"`` for the diagnostic text.
    """

    attr: str
    lock: str
    path: str
    line: int
    via: str
    kind: str


@dataclass(frozen=True)
class EscapingRaise:
    """One exception type escaping a function, with its origin site."""

    type_id: str
    display: str
    path: str
    line: int
    origin: str


@dataclass
class _FunctionFacts:
    """Intraprocedural facts of one function, cached by :class:`ProjectIndex`."""

    #: Unprotected guarded-attribute accesses (the function's own).
    unprotected: list[LockObligation] = field(default_factory=list)
    #: ``(resolved targets, locks held at the call)`` per project call.
    calls: list[tuple[tuple[str, ...], frozenset[str]]] = field(default_factory=list)


_GUARDED_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
_HOLDS_RE = re.compile(r"holds:\s*([A-Za-z_][A-Za-z0-9_, ]*)")

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "add",
        "sort",
    }
)


def guarded_attributes(module: SourceModule, cls: ast.ClassDef) -> dict[str, str]:
    """Attribute → lock name, from ``# guarded-by:`` comments in ``__init__``.

    The declaration is a trailing comment on the attribute's assignment::

        self._frames: dict[str, MODFrame] = {}  # guarded-by: _catalog_lock
    """
    guarded: dict[str, str] = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == "__init__":
            for child in ast.walk(stmt):
                if isinstance(child, (ast.Assign, ast.AnnAssign)):
                    match = _GUARDED_RE.search(module.comment(child.lineno) or "")
                    if not match:
                        continue
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    for target in targets:
                        attr = self_attr(target)
                        if attr is not None:
                            guarded[attr] = match.group(1)
    return guarded


def declared_holds(module: SourceModule, func: ast.AST) -> frozenset[str]:
    """Locks a ``# holds:`` annotation on/above the ``def`` line grants."""
    held: set[str] = set()
    line = getattr(func, "lineno", 0)
    for candidate in (line, line - 1):
        match = _HOLDS_RE.search(module.comment(candidate) or "")
        if match:
            held.update(name.strip() for name in match.group(1).split(",") if name.strip())
    return frozenset(held)


def _guarded_self_attr(node: ast.AST, guarded: dict[str, str]) -> str | None:
    attr = self_attr(node)
    return attr if attr in guarded else None


def _self_attr_reads_writes(
    step_node: ast.AST, guarded: dict[str, str]
) -> list[tuple[str, str, int, str]]:
    """``(attr, lock, line, kind)`` for guarded ``self.<attr>`` touches."""
    # Sites that observably *write*: plain store/del contexts, subscript
    # stores, and receivers of in-place mutating method calls.  The
    # distinction is purely for diagnostic wording — both kinds race.
    writes: set[tuple[str, int]] = set()
    for node in walk_expressions(step_node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            attr = _guarded_self_attr(node.value, guarded)
            if attr is not None:
                writes.add((attr, node.value.lineno))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATING_METHODS:
                attr = _guarded_self_attr(node.func.value, guarded)
                if attr is not None:
                    writes.add((attr, node.func.value.lineno))
    touches: list[tuple[str, str, int, str]] = []
    for node in walk_expressions(step_node):
        attr = _guarded_self_attr(node, guarded)
        if attr is not None:
            if isinstance(node.ctx, (ast.Store, ast.Del)) or (attr, node.lineno) in writes:  # type: ignore[attr-defined]
                kind = "write"
            else:
                kind = "read"
            touches.append((attr, guarded[attr], node.lineno, kind))
    return touches


def _step_ast_nodes(step: Step) -> list[ast.AST]:
    """The AST payload of a step (empty for ``WithExit`` markers)."""
    if isinstance(step, WithEnter):
        return [step.context_expr]
    if isinstance(step, WithExit):
        return []
    return [step]


class ProjectIndex:
    """Shared per-run index: modules, call graph, facts and summaries."""

    def __init__(self, modules: list[SourceModule]) -> None:
        self.modules = modules
        self.graph = CallGraph.build(modules)
        self._facts: dict[str, _FunctionFacts] | None = None
        self._lock_summaries: dict[str, frozenset[LockObligation]] | None = None
        self._raise_summaries: dict[str, frozenset[EscapingRaise]] | None = None
        #: Exception-class ancestry: type id → ids of all (transitive) bases.
        self._ancestors: dict[str, frozenset[str]] = {}

    # -- guarded declarations ---------------------------------------------------

    def guarded_attrs(self, info: FunctionInfo) -> dict[str, str]:
        """Guarded attribute → lock for the class owning ``info`` (if any)."""
        if info.class_node is None:
            return {}
        return guarded_attributes(info.module, info.class_node)

    def declared_holds(self, info: FunctionInfo) -> frozenset[str]:
        """The ``# holds:`` contract on ``info``'s ``def`` line, if any."""
        return declared_holds(info.module, info.node)

    # -- intraprocedural facts ---------------------------------------------------

    def _function_facts(self) -> dict[str, _FunctionFacts]:
        if self._facts is not None:
            return self._facts
        facts: dict[str, _FunctionFacts] = {}
        for qualname, info in self.graph.functions.items():
            facts[qualname] = self._compute_facts(qualname, info)
        self._facts = facts
        return facts

    def _compute_facts(self, qualname: str, info: FunctionInfo) -> _FunctionFacts:
        facts = _FunctionFacts()
        guarded = self.guarded_attrs(info)
        if info.name == "__init__":
            # No concurrent access before construction completes; __init__
            # still propagates its callees' obligations via `calls`.
            guarded = {}
        cfg = build_cfg(info.node)
        for step, held in locks_at_steps(cfg):
            for node in _step_ast_nodes(step):
                if guarded:
                    for attr, lock, line, kind in _self_attr_reads_writes(node, guarded):
                        if lock not in held:
                            facts.unprotected.append(
                                LockObligation(
                                    attr=attr,
                                    lock=lock,
                                    path=str(info.module.path),
                                    line=line,
                                    via=qualname,
                                    kind=kind,
                                )
                            )
                for child in walk_expressions(node):
                    if isinstance(child, ast.Call):
                        targets = self.graph.resolve_call(info, child)
                        if targets is TOP or not targets:
                            continue
                        facts.calls.append((tuple(targets), held))  # type: ignore[arg-type]
        return facts

    # -- lock-obligation summaries ----------------------------------------------

    def called_functions(self) -> frozenset[str]:
        """Qualnames that at least one resolved project call reaches."""
        return frozenset(
            target
            for facts in self._function_facts().values()
            for targets, _ in facts.calls
            for target in targets
        )

    def lock_obligations(self) -> dict[str, frozenset[LockObligation]]:
        """Function qualname → obligations escaping it (bounded fixpoint)."""
        if self._lock_summaries is not None:
            return self._lock_summaries
        facts = self._function_facts()
        summaries: dict[str, set[LockObligation]] = {
            qualname: set(f.unprotected) for qualname, f in facts.items()
        }
        for _ in range(FIXPOINT_BOUND):
            changed = False
            for qualname, f in facts.items():
                inherited: set[LockObligation] = set()
                for targets, held in f.calls:
                    for target in targets:
                        for obligation in summaries.get(target, ()):
                            if obligation.lock not in held:
                                inherited.add(obligation)
                if not inherited <= summaries[qualname]:
                    summaries[qualname] |= inherited
                    changed = True
            if not changed:
                break
        self._lock_summaries = {q: frozenset(s) for q, s in summaries.items()}
        return self._lock_summaries

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
