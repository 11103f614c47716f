"""REPRO110 ``race-detection`` — guarded state is reachable only under its lock.

Declaration syntax — a trailing comment on the attribute's assignment in
``__init__``::

    self._frames: dict[str, MODFrame] = {}  # guarded-by: _catalog_lock

Every later read or write of ``self._frames`` must then happen with
``_catalog_lock`` held.  The rule is built on the
:mod:`repro.analysis.flow` core.  It is *flow-sensitive* (a lock held on
only one arm of an ``if`` does not count — the must-held set comes from
the CFG dataflow, with ``with``-exit and early-return edges modelled)
and *interprocedural* (an unlocked access inside a helper is an
**obligation** that propagates to the helper's callers; a call site made
under ``with self.<lock>:`` discharges it).  Reads are checked as well
as writes: a torn read of ``HermesEngine._frames`` mid-``register`` is
exactly the bug the multi-client server mode must not have.

A finding is reported when an undischarged obligation surfaces in an
**entry point**: a function or method whose name has no leading
underscore (engine, pool and prepared-statement surfaces are all
public-named), or one that no resolved project call reaches (a
``threading.Thread(target=self._worker)`` target, say).  ``# holds:``
annotations on or directly above the ``def`` line are honoured only at
entries, as an explicit caller contract; on helpers that project code
calls they are ignored, because there this rule *verifies* the claim
against the actual callers instead of trusting it.  ``__init__`` bodies
are exempt (no concurrent access before construction), and unknown
callees (:data:`~repro.analysis.flow.callgraph.TOP`) contribute no
obligations — the rule under-approximates rather than guess.

Out of scope, documented: accesses through aliases
(``cache = self._frames``) and cross-object accesses
(``other._frames``); mutate through ``self`` so the analysis can see it.
"""

from __future__ import annotations

from repro.analysis.base import Finding, ProjectChecker
from repro.analysis.flow.summaries import ProjectIndex

__all__ = ["RaceChecker"]


class RaceChecker(ProjectChecker):
    """Flag guarded-attribute accesses reachable unlocked from entry points."""

    rule = "REPRO110"
    slug = "race-detection"
    hint = (
        "hold the declared lock on every path: wrap the access in "
        "`with self.<lockname>:` in the helper, or acquire the lock in each "
        "entry point that reaches it"
    )

    def check_project(self, index: ProjectIndex) -> list[Finding]:
        """Report each unlocked access once, naming one entry it leaks from."""
        obligations = index.lock_obligations()
        called = index.called_functions()
        findings: list[Finding] = []
        reported: set[tuple[str, int, str]] = set()
        for qualname in sorted(obligations):
            info = index.graph.functions[qualname]
            if info.name == "__init__" or not (info.is_public or qualname not in called):
                continue
            entry_holds = index.declared_holds(info)
            root = qualname.rsplit("::", 1)[-1]
            for obligation in sorted(
                obligations[qualname], key=lambda o: (o.path, o.line, o.attr)
            ):
                if obligation.lock in entry_holds:
                    continue
                key = (obligation.path, obligation.line, obligation.attr)
                if key in reported:
                    continue
                reported.add(key)
                where = (
                    "locally"
                    if obligation.via == qualname
                    else f"via `{obligation.via.rsplit('::', 1)[-1]}`"
                )
                findings.append(
                    Finding(
                        rule=self.rule,
                        slug=self.slug,
                        path=obligation.path,
                        line=obligation.line,
                        message=(
                            f"`self.{obligation.attr}` is guarded-by "
                            f"`{obligation.lock}` but entry `{root}` "
                            f"reaches this {obligation.kind} {where} without "
                            f"holding it"
                        ),
                        hint=self.hint,
                    )
                )
        return findings
