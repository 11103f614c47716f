"""Flow-sensitive analysis core for the ``repro-lint`` checker suite.

A syntactic, per-function checker can see that a statement touches a
guarded attribute, but not that the access sits on a path where the lock
is provably held, nor that a helper's caller holds it.  This package adds
the pieces that make *flow-sensitive* and *interprocedural* rules
possible while staying stdlib-only:

* :mod:`repro.analysis.flow.cfg` — a per-function control-flow graph
  built from :mod:`ast`, with synthetic enter/exit markers for ``with``
  blocks and a generic forward worklist solver,
* :mod:`repro.analysis.flow.lockset` — the intraprocedural lock-set
  dataflow (which locks are *must*-held at every statement),
* :mod:`repro.analysis.flow.callgraph` — a project-wide call graph with
  deliberately modest resolution (``self`` methods, module functions,
  project imports; everything else degrades to :data:`~repro.analysis.flow.callgraph.TOP`),
* :mod:`repro.analysis.flow.summaries` — bounded interprocedural
  summaries on top of the call graph: lock obligations that escape a
  function (REPRO110) and exception types that escape it (REPRO111).

The rules built on this core are
:class:`~repro.analysis.race.RaceChecker` (REPRO110),
:class:`~repro.analysis.exception_contracts.ExceptionContractChecker`
(REPRO111) and :class:`~repro.analysis.durability.DurabilityChecker`
(REPRO112); see ``docs/static-analysis.md`` for the rule reference and
the design notes.
"""

from repro.analysis.flow.callgraph import TOP, CallGraph, FunctionInfo
from repro.analysis.flow.cfg import CFG, Block, WithEnter, WithExit, build_cfg
from repro.analysis.flow.lockset import locks_at_steps
from repro.analysis.flow.summaries import LockObligation, ProjectIndex

__all__ = [
    "CFG",
    "Block",
    "CallGraph",
    "FunctionInfo",
    "LockObligation",
    "ProjectIndex",
    "TOP",
    "WithEnter",
    "WithExit",
    "build_cfg",
    "locks_at_steps",
]
