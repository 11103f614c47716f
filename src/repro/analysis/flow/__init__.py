"""Flow-sensitive analysis core for the ``repro-lint`` checker suite.

A syntactic, per-function checker can see that a statement raises or
renames, but not the order in which a path reaches those steps, nor
what a helper lets escape to its callers.  This package adds the pieces
that make *flow-sensitive* and *interprocedural* rules possible while
staying stdlib-only:

* :mod:`repro.analysis.flow.cfg` — a per-function control-flow graph
  built from :mod:`ast`, with synthetic enter/exit markers for ``with``
  blocks and a generic forward worklist solver,
* :mod:`repro.analysis.flow.callgraph` — a project-wide call graph with
  deliberately modest resolution (``self`` methods, module functions,
  project imports; everything else degrades to :data:`~repro.analysis.flow.callgraph.TOP`),
* :mod:`repro.analysis.flow.summaries` — bounded interprocedural
  summaries on top of the call graph: the exception types that escape a
  function (REPRO111).

The rules built on this core are
:class:`~repro.analysis.exception_contracts.ExceptionContractChecker`
(REPRO111) and :class:`~repro.analysis.durability.DurabilityChecker`
(REPRO112); see ``docs/static-analysis.md`` for the rule reference and
the design notes.
"""

from repro.analysis.flow.callgraph import TOP, CallGraph, FunctionInfo
from repro.analysis.flow.cfg import CFG, Block, WithEnter, WithExit, build_cfg
from repro.analysis.flow.summaries import ProjectIndex

__all__ = [
    "CFG",
    "Block",
    "CallGraph",
    "FunctionInfo",
    "ProjectIndex",
    "TOP",
    "WithEnter",
    "WithExit",
    "build_cfg",
]
