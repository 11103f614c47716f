"""Intraprocedural lock-set dataflow: which locks are *must*-held where.

The transfer function is driven by the CFG's synthetic
:class:`~repro.analysis.flow.cfg.WithEnter` /
:class:`~repro.analysis.flow.cfg.WithExit` steps: entering
``with self.<lock>:`` adds ``<lock>`` to the set, leaving it removes it.
The merge at control-flow joins is set *intersection* — a lock counts as
held at a statement only when every path reaching the statement holds it,
which is exactly the guarantee a race checker needs (a may-analysis
would bless mutations that are unlocked on one arm of an ``if``).

Lock identity is the attribute name of a ``self``-rooted context
expression (``with self._catalog_lock:`` → ``"_catalog_lock"``); any
other context manager (files, arenas, ``contextlib`` helpers) acquires
nothing and is ignored.  Non-``with`` acquisition (``lock.acquire()`` /
``lock.release()``) is deliberately out of scope: the codebase's locking
convention is ``with``-only, and REPRO110 exists to keep it that way.
"""

from __future__ import annotations

import ast

from repro.analysis.flow.cfg import CFG, Step, WithEnter, WithExit, solve_forward

__all__ = ["locks_at_steps", "self_attr"]


def self_attr(node: ast.AST) -> str | None:
    """``self.<attr>`` → ``"<attr>"``; anything else → ``None``.

    Names the lock a ``with`` acquires, and the attribute a ``# guarded-by:``
    declaration or an access refers to.
    """
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


def _transfer(step: Step, held: frozenset[str]) -> frozenset[str]:
    if isinstance(step, WithEnter):
        name = self_attr(step.context_expr)
        if name is not None:
            return held | {name}
    elif isinstance(step, WithExit):
        name = self_attr(step.context_expr)
        if name is not None:
            return held - {name}
    return held


def locks_at_steps(
    cfg: CFG, entry_locks: frozenset[str] = frozenset()
) -> list[tuple[Step, frozenset[str]]]:
    """Every reachable step paired with the locks must-held *before* it.

    ``entry_locks`` seeds the set at function entry (a ``# holds:``
    contract).  Steps are listed in block order; unreachable blocks
    (code after an unconditional jump) are skipped — nothing executes
    there, so nothing needs a lock.
    """
    entries = solve_forward(
        cfg,
        entry_locks,
        _transfer,
        lambda a, b: a & b,
    )
    result: list[tuple[Step, frozenset[str]]] = []
    for block_id in sorted(entries):
        state = entries[block_id]
        for step in cfg.block(block_id).steps:
            result.append((step, state))
            state = _transfer(step, state)
    return result
