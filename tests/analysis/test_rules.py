"""Per-rule fixtures: each rule fires exactly where expected, stays quiet on
the compliant twin, and is silenced by its suppression comment."""

from __future__ import annotations

import textwrap

import pytest


def line_of(source: str, needle: str) -> int:
    """1-based line of the first fixture line containing ``needle``."""
    for number, line in enumerate(textwrap.dedent(source).splitlines(), 1):
        if needle in line:
            return number
    raise AssertionError(f"marker {needle!r} not found in fixture source")

# ---------------------------------------------------------------------------
# REPRO101 io-discipline
# ---------------------------------------------------------------------------

IO_POSITIVE = """\
    import os


    def commit(path, data):
        handle = open(path, "wb")  # MARK-open
        handle.close()
        os.replace(path, path)  # MARK-replace
        path.write_bytes(data)  # MARK-write
"""

IO_NEGATIVE = """\
    def commit(io, path, data):
        handle = io.open(path, "wb")
        try:
            io.write(handle, data)
            io.fsync(handle)
        finally:
            handle.close()
        io.replace(path, path)
        self_io = io
        self_io.unlink(path)
"""


def test_io_discipline_positive(lint_tree):
    findings = lint_tree({"storage/bad_io.py": IO_POSITIVE}, select=["io-discipline"])
    assert [f.rule for f in findings] == ["REPRO101"] * 3
    assert {f.line for f in findings} == {
        line_of(IO_POSITIVE, "MARK-open"),
        line_of(IO_POSITIVE, "MARK-replace"),
        line_of(IO_POSITIVE, "MARK-write"),
    }
    assert all("IOShim" in f.hint for f in findings)


def test_io_discipline_negative(lint_tree):
    assert lint_tree({"storage/good_io.py": IO_NEGATIVE}, select=["io-discipline"]) == []


def test_io_discipline_scoped_to_storage_and_engine(lint_tree):
    # The same raw calls outside storage/ and core/engine|ingest are legal.
    findings = lint_tree(
        {"hermes/elsewhere.py": IO_POSITIVE, "core/parallel.py": IO_POSITIVE},
        select=["io-discipline"],
    )
    assert findings == []


def test_io_discipline_exempts_the_shim_itself(lint_tree):
    findings = lint_tree({"storage/faults.py": IO_POSITIVE}, select=["io-discipline"])
    assert findings == []


def test_io_discipline_suppression(lint_tree):
    source = """\
        def stage(path):
            return open(path, "wb")  # repro-lint: allow[io-discipline]
    """
    assert lint_tree({"storage/allowed.py": source}, select=["io-discipline"]) == []


# ---------------------------------------------------------------------------
# REPRO103 plan-purity
# ---------------------------------------------------------------------------

PLAN_POSITIVE = """\
    from dataclasses import dataclass


    @dataclass
    class ScanPlan:  # MARK-unfrozen
        dataset: str


    class PlanExecutor:
        def _stream(self, plan):
            self.engine.touched = True  # MARK-write
            yield plan
"""

PLAN_NEGATIVE = """\
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class ScanPlan:
        dataset: str


    class PlanExecutor:
        def _stream(self, plan):
            rows = self.engine.frame(plan.dataset)
            yield from rows

        def _insert(self, plan):
            # Eager (non-streaming) methods may write engine state.
            self.engine.loaded = True
            return []
"""


def test_plan_purity_positive(lint_tree):
    findings = lint_tree({"sql/plan.py": PLAN_POSITIVE}, select=["plan-purity"])
    assert [f.rule for f in findings] == ["REPRO103"] * 2
    assert {f.line for f in findings} == {
        line_of(PLAN_POSITIVE, "MARK-unfrozen"),
        line_of(PLAN_POSITIVE, "MARK-write"),
    }


def test_plan_purity_negative(lint_tree):
    assert lint_tree({"sql/plan.py": PLAN_NEGATIVE}, select=["plan-purity"]) == []


def test_plan_purity_frozen_check_only_in_plan_module(lint_tree):
    # Unfrozen dataclasses are fine elsewhere in sql/ (e.g. parser state);
    # the executor streaming check still applies there.
    findings = lint_tree({"sql/parser.py": PLAN_POSITIVE}, select=["plan-purity"])
    assert [f.line for f in findings] == [line_of(PLAN_POSITIVE, "MARK-write")]


def test_plan_purity_suppression(lint_tree):
    source = """\
        class PlanExecutor:
            def _stream(self, plan):
                self.engine.touched = True  # repro-lint: allow[plan-purity]
                yield plan
    """
    assert lint_tree({"sql/executor.py": source}, select=["plan-purity"]) == []


# ---------------------------------------------------------------------------
# REPRO105 determinism
# ---------------------------------------------------------------------------

DET_POSITIVE = """\
    import random
    import time

    import numpy as np


    def jitter():
        now = time.time()  # MARK-clock
        noise = random.random()  # MARK-rng
        more = np.random.normal()  # MARK-nprng
        return now + noise + more
"""

DET_NEGATIVE = """\
    import random
    import time

    import numpy as np


    def timed(seed):
        start = time.perf_counter()
        rng = random.Random(seed)
        np_rng = np.random.default_rng(seed)
        return time.perf_counter() - start, rng.random(), np_rng.normal()
"""


@pytest.mark.parametrize("package", ["hermes", "qut", "sql"])
def test_determinism_positive(lint_tree, package):
    findings = lint_tree({f"{package}/noise.py": DET_POSITIVE}, select=["determinism"])
    assert [f.rule for f in findings] == ["REPRO105"] * 3
    assert {f.line for f in findings} == {
        line_of(DET_POSITIVE, "MARK-clock"),
        line_of(DET_POSITIVE, "MARK-rng"),
        line_of(DET_POSITIVE, "MARK-nprng"),
    }


def test_determinism_negative(lint_tree):
    assert lint_tree({"qut/timed.py": DET_NEGATIVE}, select=["determinism"]) == []


@pytest.mark.parametrize("package", ["eval", "datagen", "baselines"])
def test_determinism_scoped_out_of_benchmarks(lint_tree, package):
    assert lint_tree({f"{package}/noise.py": DET_POSITIVE}, select=["determinism"]) == []


def test_determinism_covers_quality_harness(lint_tree):
    """eval/quality.py promises exact seed re-runs, so it is in scope even
    though the rest of eval/ is not."""
    findings = lint_tree({"eval/quality.py": DET_POSITIVE}, select=["determinism"])
    assert [f.rule for f in findings] == ["REPRO105"] * 3
    assert lint_tree({"eval/quality.py": DET_NEGATIVE}, select=["determinism"]) == []


def test_determinism_suppression(lint_tree):
    source = """\
        import time


        def stamp():
            # repro-lint: allow[REPRO105]
            return time.time()
    """
    assert lint_tree({"sql/stamp.py": source}, select=["determinism"]) == []


# ---------------------------------------------------------------------------
# REPRO106 shm-hygiene
# ---------------------------------------------------------------------------

SHM_POSITIVE = """\
    from repro.hermes.shm import ShmArena


    def make():
        arena = ShmArena()  # MARK-unscoped
        return arena
"""

SHM_NEGATIVE = """\
    import atexit

    from repro.hermes.shm import ShmArena

    _DEFAULT_ARENA = ShmArena()
    atexit.register(_DEFAULT_ARENA.drain)


    def scoped(frames):
        with ShmArena() as arena:
            return [arena.ship(frame) for frame in frames]
"""


def test_shm_hygiene_positive(lint_tree):
    findings = lint_tree({"core/arena.py": SHM_POSITIVE}, select=["shm-hygiene"])
    assert [f.rule for f in findings] == ["REPRO106"]
    assert findings[0].line == line_of(SHM_POSITIVE, "MARK-unscoped")


def test_shm_hygiene_negative(lint_tree):
    assert lint_tree({"hermes/arena.py": SHM_NEGATIVE}, select=["shm-hygiene"]) == []


def test_shm_hygiene_suppression(lint_tree):
    source = """\
        from repro.hermes.shm import ShmArena


        def adopt():
            return ShmArena()  # repro-lint: allow[shm-hygiene]
    """
    assert lint_tree({"core/adopt.py": source}, select=["shm-hygiene"]) == []


# ---------------------------------------------------------------------------
# Cross-rule: suppression comments only silence the named rule
# ---------------------------------------------------------------------------


def test_suppression_is_rule_specific(lint_tree):
    source = """\
        import time


        def stamp(path):
            open(path, "wb").close()  # repro-lint: allow[determinism]
    """
    findings = lint_tree({"storage/wrong_allow.py": source})
    assert [f.rule for f in findings] == ["REPRO101"]
