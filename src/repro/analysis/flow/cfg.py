"""Per-function control-flow graphs over :mod:`ast`, plus a forward solver.

The CFG is the substrate every flow-sensitive rule shares: basic blocks
of *steps* connected by directed edges.  A step is one of

* a simple :class:`ast.stmt` (assignment, expression statement, return,
  raise, nested ``def``, ...),
* an :class:`ast.expr` — the test of an ``if``/``while`` or the iterable
  of a ``for``, evaluated before the branch,
* a synthetic :class:`WithEnter` / :class:`WithExit` marker for each
  ``with`` item, so entering and leaving a context manager become
  explicit events on the path.

Construction handles ``if``/``for``/``while`` (with ``else`` arms),
``try``/``except``/``else``/``finally``, ``with``, ``break``/``continue``
and early ``return``/``raise``.  Exits are split: :attr:`CFG.exit_id`
collects normal completion (fall-through and ``return``),
:attr:`CFG.raise_id` collects explicit ``raise`` paths, so rules that
only constrain normal completion (durability ordering) can tell the two
apart.  When control leaves one or more ``with`` blocks early (``return``
/ ``raise`` / ``break`` / ``continue``), the matching :class:`WithExit`
markers are emitted on the edge, so a context never appears entered on a
path that escaped its ``with``.

Deliberate approximations, documented for rule authors: implicit
exceptions (any call can raise) are not modelled as edges — only
explicit ``raise`` statements and the try-entry edge into each handler
are; nested function bodies are *steps*, not sub-graphs (the checkers
decide whether to inline them).  Both keep the graph small and the
findings anchored to code the author wrote.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, TypeVar, Union

__all__ = [
    "CFG",
    "Block",
    "Step",
    "WithEnter",
    "WithExit",
    "build_cfg",
    "solve_forward",
    "walk_expressions",
]


@dataclass(frozen=True)
class WithEnter:
    """Synthetic step marking entry into one ``with`` item."""

    context_expr: ast.expr
    line: int


@dataclass(frozen=True)
class WithExit:
    """Synthetic step marking exit from one ``with`` item."""

    context_expr: ast.expr
    line: int


#: One unit of work inside a basic block.
Step = Union[ast.stmt, ast.expr, WithEnter, WithExit]


@dataclass
class Block:
    """A basic block: a straight-line run of steps plus successor edges."""

    id: int
    steps: list[Step] = field(default_factory=list)
    succs: list[int] = field(default_factory=list)

    def add_edge(self, target: int) -> None:
        """Add an edge to ``target`` (idempotent, order-preserving)."""
        if target not in self.succs:
            self.succs.append(target)


class CFG:
    """A function's control-flow graph.

    Attributes
    ----------
    blocks:
        Every block, indexed by :attr:`Block.id`.
    entry_id:
        The block control enters at.
    exit_id:
        The synthetic normal-completion block (fall-through, ``return``).
    raise_id:
        The synthetic abnormal-completion block (explicit ``raise`` that
        no handler in the function catches).
    """

    def __init__(self, blocks: list[Block], entry_id: int, exit_id: int, raise_id: int) -> None:
        self.blocks = blocks
        self.entry_id = entry_id
        self.exit_id = exit_id
        self.raise_id = raise_id

    def block(self, block_id: int) -> Block:
        """The block with id ``block_id``."""
        return self.blocks[block_id]

    def reachable(self) -> set[int]:
        """Ids of blocks reachable from the entry block."""
        seen: set[int] = set()
        stack = [self.entry_id]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.blocks[current].succs)
        return seen


class _LoopFrame:
    """Targets for ``break``/``continue`` plus the with-depth at loop entry."""

    def __init__(self, break_target: int, continue_target: int, with_depth: int) -> None:
        self.break_target = break_target
        self.continue_target = continue_target
        self.with_depth = with_depth


class _Builder:
    """Recursive-descent CFG construction (one instance per function)."""

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.exit_id = self._new_block().id
        self.raise_id = self._new_block().id
        self.entry_id = self._new_block().id
        self.current = self.entry_id
        # Innermost-last stacks: enclosing loops, active with items, and
        # exception targets as (handler-entry ids, with-depth when the try
        # was entered).
        self.loops: list[_LoopFrame] = []
        self.withs: list[WithEnter] = []
        self.handlers: list[tuple[list[int], int]] = []

    def _new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def _add(self, step: Step) -> None:
        self.blocks[self.current].steps.append(step)

    def _edge(self, target: int) -> None:
        self.blocks[self.current].add_edge(target)

    def _start(self, block_id: int) -> None:
        self.current = block_id

    def _escape(self, target: int, down_to_depth: int) -> None:
        """Jump to ``target``, emitting WithExit steps for escaped withs."""
        for entered in reversed(self.withs[down_to_depth:]):
            self._add(WithExit(entered.context_expr, entered.line))
        self._edge(target)
        # Continue into a fresh unreachable block: anything after a jump is
        # dead code but must still parse into the graph.
        self._start(self._new_block().id)

    def _raise_targets(self) -> tuple[list[int], int]:
        if self.handlers:
            return self.handlers[-1]
        return [self.raise_id], 0

    # -- statement dispatch ------------------------------------------------------

    def build(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
        """Construct the CFG for ``func``'s body."""
        self._stmts(func.body)
        self._edge(self.exit_id)
        return CFG(self.blocks, self.entry_id, self.exit_id, self.raise_id)

    def _stmts(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self._if(stmt)
        elif isinstance(stmt, (ast.While,)):
            self._while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._for(stmt)
        elif isinstance(stmt, ast.Try):
            self._try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
        elif isinstance(stmt, ast.Return):
            self._add(stmt)
            self._escape(self.exit_id, 0)
        elif isinstance(stmt, ast.Raise):
            self._add(stmt)
            targets, depth = self._raise_targets()
            for entered in reversed(self.withs[depth:]):
                self._add(WithExit(entered.context_expr, entered.line))
            for target in targets:
                self._edge(target)
            self._start(self._new_block().id)
        elif isinstance(stmt, ast.Break):
            if self.loops:
                frame = self.loops[-1]
                self._add(stmt)
                self._escape(frame.break_target, frame.with_depth)
            else:  # pragma: no cover - break outside loop is a SyntaxError
                self._add(stmt)
        elif isinstance(stmt, ast.Continue):
            if self.loops:
                frame = self.loops[-1]
                self._add(stmt)
                self._escape(frame.continue_target, frame.with_depth)
            else:  # pragma: no cover - continue outside loop is a SyntaxError
                self._add(stmt)
        else:
            # Simple statements — including nested FunctionDef/ClassDef,
            # which are definitions (steps), not control flow.
            self._add(stmt)

    def _if(self, stmt: ast.If) -> None:
        self._add(stmt.test)
        branch_from = self.current
        join = self._new_block()

        then = self._new_block()
        self.blocks[branch_from].add_edge(then.id)
        self._start(then.id)
        self._stmts(stmt.body)
        self._edge(join.id)

        if stmt.orelse:
            other = self._new_block()
            self.blocks[branch_from].add_edge(other.id)
            self._start(other.id)
            self._stmts(stmt.orelse)
            self._edge(join.id)
        else:
            self.blocks[branch_from].add_edge(join.id)
        self._start(join.id)

    def _while(self, stmt: ast.While) -> None:
        header = self._new_block()
        self._edge(header.id)
        self._start(header.id)
        self._add(stmt.test)

        after = self._new_block()
        body = self._new_block()
        self.blocks[header.id].add_edge(body.id)

        self.loops.append(_LoopFrame(after.id, header.id, len(self.withs)))
        self._start(body.id)
        self._stmts(stmt.body)
        self._edge(header.id)
        self.loops.pop()

        if stmt.orelse:
            orelse = self._new_block()
            self.blocks[header.id].add_edge(orelse.id)
            self._start(orelse.id)
            self._stmts(stmt.orelse)
            self._edge(after.id)
        else:
            self.blocks[header.id].add_edge(after.id)
        self._start(after.id)

    def _for(self, stmt: ast.For | ast.AsyncFor) -> None:
        self._add(stmt.iter)
        header = self._new_block()
        self._edge(header.id)
        self._start(header.id)
        # The target binding happens once per iteration, at the header.
        self._add(stmt.target)

        after = self._new_block()
        body = self._new_block()
        self.blocks[header.id].add_edge(body.id)

        self.loops.append(_LoopFrame(after.id, header.id, len(self.withs)))
        self._start(body.id)
        self._stmts(stmt.body)
        self._edge(header.id)
        self.loops.pop()

        if stmt.orelse:
            orelse = self._new_block()
            self.blocks[header.id].add_edge(orelse.id)
            self._start(orelse.id)
            self._stmts(stmt.orelse)
            self._edge(after.id)
        else:
            self.blocks[header.id].add_edge(after.id)
        self._start(after.id)

    def _with(self, stmt: ast.With | ast.AsyncWith) -> None:
        enters = [
            WithEnter(item.context_expr, getattr(item.context_expr, "lineno", stmt.lineno))
            for item in stmt.items
        ]
        for enter in enters:
            self._add(enter)
            self.withs.append(enter)
        self._stmts(stmt.body)
        for enter in reversed(enters):
            self.withs.pop()
            self._add(WithExit(enter.context_expr, enter.line))

    def _try(self, stmt: ast.Try) -> None:
        after = self._new_block()

        # Handler entry blocks exist before the body is built so explicit
        # raises inside the body can target them.
        handler_entries: list[int] = [self._new_block().id for _ in stmt.handlers]

        body = self._new_block()
        self._edge(body.id)
        # Any step of the body may raise; the graph models the coarse
        # version of that: an edge from the try entry into each handler.
        for entry in handler_entries:
            self.blocks[body.id].add_edge(entry)
        if stmt.handlers:
            self.handlers.append((handler_entries, len(self.withs)))
        self._start(body.id)
        self._stmts(stmt.body)
        if stmt.handlers:
            self.handlers.pop()
        # Normal body completion runs the else arm (outside handler scope).
        if stmt.orelse:
            self._stmts(stmt.orelse)

        finally_entry: int | None = None
        if stmt.finalbody:
            fin = self._new_block()
            finally_entry = fin.id
            self._edge(fin.id)
            self._start(fin.id)
            self._stmts(stmt.finalbody)
            self._edge(after.id)
        else:
            self._edge(after.id)

        for handler, entry in zip(stmt.handlers, handler_entries):
            self._start(entry)
            self._stmts(handler.body)
            if finally_entry is not None:
                self._edge(finally_entry)
            else:
                self._edge(after.id)
        self._start(after.id)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder().build(func)


T = TypeVar("T")


def solve_forward(
    cfg: CFG,
    entry_state: T,
    transfer: Callable[[Step, T], T],
    meet: Callable[[T, T], T],
) -> dict[int, T]:
    """Forward dataflow fixpoint: block id → state at block *entry*.

    Classic worklist iteration: the state entering a block is the
    ``meet`` over its predecessors' exit states (exit = ``transfer``
    folded over the block's steps), seeded with ``entry_state`` at the
    CFG entry.  Only blocks reachable from the entry participate.
    ``transfer`` must be deterministic and ``meet`` associative,
    commutative and idempotent — the usual lattice contract; with a
    finite state space the iteration terminates.
    """
    reachable = cfg.reachable()
    states: dict[int, T] = {cfg.entry_id: entry_state}
    worklist = [cfg.entry_id]
    while worklist:
        block_id = worklist.pop(0)
        state = states[block_id]
        for step in cfg.block(block_id).steps:
            state = transfer(step, state)
        for succ in cfg.block(block_id).succs:
            if succ not in reachable:  # pragma: no cover - succs are reachable
                continue
            merged = state if succ not in states else meet(states[succ], state)
            if succ not in states or merged != states[succ]:
                states[succ] = merged
                if succ not in worklist:
                    worklist.append(succ)
    return states


def walk_expressions(node: ast.AST) -> list[ast.AST]:
    """Every descendant of ``node``, pruning nested function/lambda bodies.

    The checkers use this when collecting events that happen *when the
    statement executes*: a nested ``def`` or ``lambda`` body runs at some
    later call, under a possibly different lock-set, so its contents must
    not be attributed to the defining statement.
    """
    found: list[ast.AST] = []
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        found.append(current)
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return found
