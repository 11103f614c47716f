"""REPRO112 ``durability-ordering`` — stage, fsync, rename, fsync the directory.

The crash-safety protocol every commit path in the storage layer follows
(and the fault-injection sweep assumes) is a fixed four-beat sequence:

1. write the new bytes to a staged ``*.tmp`` sibling,
2. ``fsync`` the staged file — the bytes are durable before they become
   *reachable*,
3. ``replace``/``rename`` the staged file over the live name — the
   atomic commit point,
4. ``fsync`` the parent directory — the new directory entry is durable.

Swapping beats 2 and 3 is the classic silent corruption: after a crash
the live name can point at a zero-length or torn file and recovery finds
garbage *at the committed path*.  Forgetting beat 4 loses the rename
itself on some filesystems.  Neither bug is visible in tests that don't
cut power at exactly the wrong syscall — which is why this is a lint
rule and not only a fault-sweep concern.

The checker runs on every function in the REPRO101 scope (``storage/``
— which is where the durable catalog lives — plus ``core/ingest.py``;
``storage/faults.py`` is the shim and exempt) that performs a
``replace``.  Over the function's CFG it tracks a small state machine —
*staged-dirty* after a shim ``write``, *staged-synced* after a shim
``fsync``, with the set of renames still awaiting a directory fsync carried alongside — and reports
a finding when **any** path renames while dirty, or reaches a normal
exit with a rename not followed by ``fsync_dir`` (explicit ``raise``
paths are exempt: a crashed commit is the fault sweep's business, not
this rule's).  Local closures are inlined: the
``self._retry(stage)`` / ``self._retry(lambda: io.replace(...))``
pattern used by :meth:`~repro.storage.catalog.StorageManager.write_manifest`
contributes its I/O events at the reference site, in body order —
referencing a local ``def`` counts as invoking it, which is exactly the
retry-wrapper contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.base import Checker, Finding, SourceModule, dotted_name
from repro.analysis.flow.cfg import Step, WithEnter, WithExit, build_cfg, solve_forward
from repro.analysis.io_discipline import _is_shim_receiver

__all__ = ["DurabilityChecker"]

# Staging-state ranks: lower is worse, meet = min.
_DIRTY = 0  # a staged write has happened with no fsync yet
_IDLE = 1  # nothing staged (or a previous commit cycle completed)
_SYNCED = 2  # staged bytes are fsynced: safe to rename


@dataclass(frozen=True)
class _Event:
    """One durability-relevant I/O call: kind plus its source line."""

    kind: str  # "write" | "fsync" | "replace" | "fsync_dir"
    line: int


#: The dataflow state: (staging rank, lines of renames awaiting fsync_dir).
_State = tuple[int, frozenset[int]]


def _classify(call: ast.Call) -> str | None:
    """The durability event kind of a call, or ``None``."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "fsync_dir":
        return "fsync_dir"
    qual = dotted_name(func)
    is_os = qual is not None and qual.startswith("os.")
    if func.attr in ("replace", "rename") and (_is_shim_receiver(func.value) or is_os):
        return "replace"
    if func.attr in ("write", "fsync") and _is_shim_receiver(func.value):
        return func.attr
    return None


class _EventExtractor:
    """In-order durability events of a step, with local closures inlined."""

    def __init__(self, local_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef]) -> None:
        self.local_defs = local_defs
        self._inlining: set[str] = set()

    def of_step(self, step: Step) -> list[_Event]:
        """Durability events fired by one CFG step, in execution order."""
        if isinstance(step, WithEnter):
            return self._of_node(step.context_expr)
        if isinstance(step, WithExit):
            return []
        return self._of_node(step)

    def _of_node(self, node: ast.AST) -> list[_Event]:
        events: list[_Event] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return events  # a definition executes nothing now
        if isinstance(node, ast.Name) and node.id in self.local_defs:
            events.extend(self._of_def(self.local_defs[node.id]))
            return events
        if isinstance(node, ast.Call):
            kind = _classify(node)
            # Evaluation order: the callee expression and arguments first
            # (where a closure reference or lambda body contributes its
            # events), then the call's own event.
            for child in ast.iter_child_nodes(node):
                events.extend(self._of_node(child))
            if kind is not None:
                events.append(_Event(kind, node.lineno))
            return events
        if isinstance(node, ast.Lambda):
            # A lambda in an executed expression is (in this codebase)
            # an argument to a retry wrapper: its body runs here.
            events.extend(self._of_node(node.body))
            return events
        for child in ast.iter_child_nodes(node):
            events.extend(self._of_node(child))
        return events

    def _of_def(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[_Event]:
        if func.name in self._inlining:
            return []  # recursive closure: stop
        self._inlining.add(func.name)
        try:
            return self._of_stmts(func.body)
        finally:
            self._inlining.discard(func.name)

    def _of_stmts(self, stmts: list[ast.stmt]) -> list[_Event]:
        """Body-order events of inlined statements (linear approximation)."""
        events: list[_Event] = []
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            header_exprs = [
                value for _, value in ast.iter_fields(stmt) if isinstance(value, ast.expr)
            ]
            for expr in header_exprs:
                events.extend(self._of_node(expr))
            for name in ("body", "orelse", "finalbody"):
                block = getattr(stmt, name, None)
                if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                    events.extend(self._of_stmts(block))
            for handler in getattr(stmt, "handlers", []) or []:
                events.extend(self._of_stmts(handler.body))
            for item in getattr(stmt, "items", []) or []:
                events.extend(self._of_node(item.context_expr))
        return events


def _transfer(events: list[_Event], state: _State) -> _State:
    rank, pending = state
    for event in events:
        if event.kind == "write":
            rank = _DIRTY
        elif event.kind == "fsync":
            if rank == _DIRTY:
                rank = _SYNCED
        elif event.kind == "replace":
            rank = _IDLE
            pending = pending | {event.line}
        elif event.kind == "fsync_dir":
            pending = frozenset()
    return rank, pending


def _meet(a: _State, b: _State) -> _State:
    return min(a[0], b[0]), a[1] | b[1]


class DurabilityChecker(Checker):
    """Flag commit paths that rename before fsync or skip the directory fsync."""

    rule = "REPRO112"
    slug = "durability-ordering"
    hint = (
        "order the commit as staged write -> io.fsync(staged) -> io.replace "
        "-> io.fsync_dir(parent); every beat must happen on every path that "
        "returns normally"
    )

    def applies(self, module: SourceModule) -> bool:
        """Same scope as REPRO101: the layers that commit durable state."""
        parts = module.logical_parts
        if not parts:
            return False
        if parts[0] == "storage":
            return parts[-1] != "faults.py"  # the shim itself: raw by design
        return parts == ("core", "ingest.py")

    def check(self, module: SourceModule) -> list[Finding]:
        """Run the staging state machine over every function that renames."""
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(module, node, findings)
        return findings

    def _check_function(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        local_defs = {
            child.name: child
            for child in ast.walk(func)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child is not func
        }
        extractor = _EventExtractor(local_defs)
        cfg = build_cfg(func)
        step_events: dict[int, list[list[_Event]]] = {}
        has_replace = False
        for block in cfg.blocks:
            per_step = [extractor.of_step(step) for step in block.steps]
            step_events[block.id] = per_step
            if any(e.kind == "replace" for events in per_step for e in events):
                has_replace = True
        if not has_replace:
            return

        def transfer(step: Step, state: _State) -> _State:
            return _transfer(extractor.of_step(step), state)

        entries = solve_forward(cfg, (_IDLE, frozenset()), transfer, _meet)

        reported: set[tuple[str, int]] = set()

        def report(kind: str, line: int, message: str) -> None:
            if (kind, line) in reported:
                return
            reported.add((kind, line))
            findings.append(
                Finding(
                    rule=self.rule,
                    slug=self.slug,
                    path=str(module.path),
                    line=line,
                    message=message,
                    hint=self.hint,
                )
            )

        for block_id, per_step in step_events.items():
            if block_id not in entries:
                continue  # unreachable
            state = entries[block_id]
            for events in per_step:
                for event in events:
                    if event.kind == "replace" and state[0] == _DIRTY:
                        report(
                            "unsynced-rename",
                            event.line,
                            f"`{func.name}` renames a staged file that was "
                            f"written but not fsynced on some path - after a "
                            f"crash the committed name can hold torn bytes",
                        )
                state = _transfer(events, state)

        exit_state = entries.get(cfg.exit_id)
        if exit_state is not None:
            for line in sorted(exit_state[1]):
                report(
                    "missing-dirsync",
                    line,
                    f"`{func.name}` returns normally after this rename "
                    f"without an `fsync_dir` of the parent directory - the "
                    f"rename itself can be lost on crash",
                )
