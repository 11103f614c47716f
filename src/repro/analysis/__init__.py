"""``repro.analysis`` — the ``repro-lint`` project-invariant checker suite.

A stdlib-:mod:`ast` static-analysis subsystem enforcing the conventions
the durable, parallel engine depends on but no generic linter knows
about.  Seven rules, each with a rule id, a slug and a remediation hint.
The first four are per-module syntactic visitors; REPRO110–112 are
flow-sensitive, built on the per-function CFGs, lock-set dataflow and
call-graph summaries in :mod:`repro.analysis.flow`:

========== ========================= ==================================================
Rule       Slug                      Invariant
========== ========================= ==================================================
REPRO101   ``io-discipline``         mutating I/O in the storage layer and ingest path
                                     routes through the fault-injectable ``IOShim``
REPRO103   ``plan-purity``           logical-plan dataclasses are frozen; streaming
                                     executor methods never write engine state
REPRO105   ``determinism``           no wall clocks / unseeded RNG in ``hermes``,
                                     ``qut``, ``sql`` (the bit-identity paths) or
                                     ``eval/quality.py`` (seed-pinned re-runs)
REPRO106   ``shm-hygiene``           every ``ShmArena`` is ``with``-scoped or the
                                     module default arena
REPRO110   ``race-detection``        ``# guarded-by:`` attributes are read/written only
                                     on paths where the declared lock is held, verified
                                     through helpers from every entry point (public, or
                                     reached by no project call)
REPRO111   ``exception-contract``    storage/ and ``repro.api`` public functions only
                                     let their documented exception types escape
REPRO112   ``durability-ordering``   commit paths stage, fsync, rename, then fsync the
                                     directory — in that order, on every normal path
========== ========================= ==================================================

Findings can be suppressed per line with a ``# repro-lint: allow[RULE]``
comment (rule id or slug) on, or directly above, the offending line (for
decorated ``def`` findings: above the decorator stack).  Run locally
with ``repro-lint`` (or ``python -m repro.analysis``); CI runs the same
on ``src/repro`` and fails on any finding.  See
``docs/static-analysis.md`` for the full rule reference.
"""

from repro.analysis.base import Checker, Finding, ProjectChecker, SourceModule
from repro.analysis.driver import ALL_CHECKERS, lint_paths, main, select_checkers

__all__ = [
    "ALL_CHECKERS",
    "Checker",
    "Finding",
    "ProjectChecker",
    "SourceModule",
    "lint_paths",
    "main",
    "select_checkers",
]
