"""REPRO105 ``determinism`` — no wall clocks or unseeded RNG on answer paths.

The project's strongest regression pin is *bit-identity*: recovery,
parallel scheduling, the shared-memory transport and the batched kernels all
assert their answers match a serial reference exactly.  That only holds if the
answer-producing packages — ``hermes/``, ``qut/``, ``sql/`` — never
consult a wall clock or an unseeded random stream.

Flagged in those packages:

* ``time.time()`` (``time.perf_counter``/``monotonic`` stay legal:
  measuring duration is fine, *keying behaviour on the date* is not),
* ``datetime.now()`` / ``datetime.utcnow()`` / ``date.today()``,
* module-level ``random.<fn>()`` calls — the interpreter-global,
  unseeded stream.  Constructing a seeded generator
  (``random.Random(seed)``) is allowed,
* ``np.random.<fn>()`` module-level calls — same reasoning; the seeded
  ``np.random.default_rng(seed)`` / ``RandomState(seed)`` constructors
  are allowed.

``eval/quality.py`` is also in scope: the BENCH_scenarios matrix promises
that every cell reproduces from its recorded seed alone, which only holds
if the harness draws no ambient entropy of its own.  The rest of ``eval/``,
``benchmarks/`` and ``datagen`` are outside the rule's scope: benchmarks
time things and scenario generators own their seeds.
"""

from __future__ import annotations

import ast

from repro.analysis.base import Checker, Finding, SourceModule, dotted_name

__all__ = ["DeterminismChecker"]

#: Exact dotted calls that read the wall clock.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

#: Attributes of the module-level RNG that are seeded/configuring rather
#: than drawing from the unseeded global stream.
_SEEDED_RNG_ATTRS = frozenset(
    {"Random", "SystemRandom", "default_rng", "Generator", "RandomState", "seed"}
)


class DeterminismChecker(Checker):
    """Flag wall-clock reads and unseeded RNG draws on bit-identity paths."""

    rule = "REPRO105"
    slug = "determinism"
    hint = (
        "thread an explicit seed (`random.Random(seed)` / "
        "`np.random.default_rng(seed)`) or take the timestamp as a parameter; "
        "bit-identity pins cannot hold against ambient entropy"
    )

    def applies(self, module: SourceModule) -> bool:
        """The answer-producing packages, plus the seed-pinned quality harness."""
        parts = module.logical_parts
        if not parts:
            return False
        # eval/quality.py promises exact re-runs from recorded seeds.
        if parts == ("eval", "quality.py"):
            return True
        return parts[0] in ("hermes", "qut", "sql")

    def check(self, module: SourceModule) -> list[Finding]:
        """Walk calls; flag the clock/RNG shapes documented above."""
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            qual = dotted_name(node.func)
            if qual is None:
                continue
            if qual in _CLOCK_CALLS:
                findings.append(
                    self.finding(
                        module, node, f"`{qual}()` reads the wall clock on an answer path"
                    )
                )
                continue
            root, _, attr = qual.rpartition(".")
            if root in ("random", "np.random", "numpy.random") and attr not in _SEEDED_RNG_ATTRS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{qual}()` draws from the unseeded module-level RNG",
                    )
                )
        return findings
