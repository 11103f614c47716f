"""A durable connection driven by random load / append / crash / qut / reopen steps.

One hypothesis state machine over ``repro.connect(path)``.  After every
step that can change an answer, three routes to the same QuT window must
agree: the SQL statement and the fluent builder give the same rows; the
engine's answer equals the per-partition loader in ``tests/qut/oracles.py``
bit for bit; and a reopened connection (a cold tree read from disk) gives
the rows the warm connection gave before it closed.  A crash step cuts the
power at a drawn operation of an append; the reopened store holds the rows
of either the state before the append or the state after it.  A damage step
restamps the closed store's manifest over a defect its stamp cannot vouch
for; every statement on the reopened dataset then raises
``CorruptManifestError``, and after ``repro-fsck --repair`` quarantined it
the catalog is empty.  A lose step deletes the closed store's base archive
or its last delta; every read of the reopened dataset then raises
``CorruptPartitionError`` and writes nothing, ``repro-fsck`` reports the
missing partition, and its repair leaves an empty catalog (the base) or the
base and the earlier deltas, marked degraded (a delta).  No step lets
an error escape outside the storage and API error contract
(``tests/storage/test_error_contract.py``).
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.errors import HypothesisException
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import repro
from repro.core.engine import HermesEngine
from repro.datagen import lane_scenario
from repro.hermes.io import write_csv
from repro.hermes.mod import MOD
from repro.hermes.types import Period
from repro.storage.catalog import MANIFEST_FILENAME, manifest_checksum
from repro.storage.errors import CorruptManifestError, CorruptPartitionError
from repro.storage.faults import FaultInjector, InjectedCrash
from tests.qut.oracles import PerPartitionQuT
from tests.qut.test_derived_state import result_signature
from tests.storage.test_error_contract import CONTRACT, within_contract

QUT_SQL = "SELECT QUT(f, :wi, :we)"
BASE = 18
MOD_F, _TRUTH = lane_scenario(n_trajectories=BASE + 12, n_lanes=3, n_samples=16, seed=5, name="f")
TRAJECTORIES = MOD_F.trajectories()
PERIOD = MOD_F.period
FRACTIONS = st.sampled_from([(0.0, 1.0), (0.1, 0.45), (0.3, 0.8), (0.55, 0.6), (0.7, 1.0)])
#: Defects a restamped manifest cannot hide: no row order, a page CRC that is
#: not a number, a partition without its CRC list.
DEFECTS = {
    "no-row-keys": lambda m: m.pop("row_keys"),
    "non-numeric-crc": lambda m: m["checksums"][m["frame_partition"]].__setitem__(0, "x"),
    "no-crc-list": lambda m: m["checksums"].pop(m["frame_partition"]),
}
#: One statement of every kind on the dataset; ``{csv}`` is a loadable file.
STATEMENTS = (
    "SELECT * FROM f",
    "SELECT COUNT(*) FROM f",
    "INSERT INTO f VALUES ('n', '0', 1.0, 2.0, 3.0), ('n', '0', 1.5, 2.5, 13.0)",
    "SELECT SUMMARY(f)",
    "SELECT S2T(f)",
    f"SELECT QUT(f, {PERIOD.tmin}, {PERIOD.tmax})",
    "CREATE DATASET f",
    "LOAD DATASET f FROM '{csv}'",
)
#: The reads that decode a dataset's archive.
READS = ("SELECT * FROM f", "SELECT COUNT(*) FROM f", "SELECT SUMMARY(f)", "SELECT S2T(f)")


def window_of(lo: float, hi: float) -> Period:
    return Period(PERIOD.tmin + lo * PERIOD.duration, PERIOD.tmin + hi * PERIOD.duration)


def contract_only(step):
    """A rule that may fail, but only with an error of the contract's types."""

    @functools.wraps(step)
    def checked(self, *args, **kwargs):
        try:
            return step(self, *args, **kwargs)
        except (*CONTRACT, HypothesisException):
            raise
        except Exception as exc:
            raise AssertionError(f"{step.__name__}: {exc!r} is outside the error contract") from exc

    return checked


def keys_of(trajectories) -> list[tuple[str, str]]:
    return [t.key for t in trajectories]


def warm_engine(root: Path, injector: FaultInjector) -> HermesEngine:
    """An engine on ``root`` through ``injector`` that has reopened the persisted tree.

    Warming the tree first makes the next append maintain the index and
    commit dataset and index at once.
    """
    engine = HermesEngine.on_disk(root, io=injector)
    assert engine.retratree("f").recovered
    return engine


def append_ops(root: Path, batch) -> int:
    """The mutating operations an append of ``batch`` makes, counted on a copy of the store."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "s"
        shutil.copytree(root, copy)
        injector = FaultInjector()
        engine = warm_engine(copy, injector)
        before = injector.ops
        engine.append("f", batch)
        engine.close()
        return injector.ops - before


class DurableStore(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-machine-"))
        self.conn = repro.connect(self.root)
        self.stored = 0
        self.window = window_of(0.0, 1.0)

    def rows(self, window: Period) -> list[dict]:
        return self.conn.execute(QUT_SQL, {"wi": window.tmin, "we": window.tmax}).fetchall()

    @precondition(lambda self: self.stored == 0)
    @rule()
    @contract_only
    def load(self) -> None:
        self.conn.engine.load_mod("f", MOD(name="f", trajectories=TRAJECTORIES[:BASE]))
        self.stored = BASE

    @precondition(lambda self: 0 < self.stored < len(TRAJECTORIES))
    @rule(size=st.integers(min_value=1, max_value=6))
    @contract_only
    def append(self, size: int) -> None:
        batch = TRAJECTORIES[self.stored : self.stored + size]
        assert self.conn.dataset("f").append(batch).persisted
        self.stored += len(batch)

    @precondition(lambda self: 0 < self.stored < len(TRAJECTORIES))
    @rule(size=st.integers(min_value=1, max_value=4), data=st.data())
    @contract_only
    def crash(self, size: int, data) -> None:
        batch = TRAJECTORIES[self.stored : self.stored + size]
        self.conn.engine.retratree("f")  # persisted, so both runs below reopen one tree
        self.conn.close()
        at = data.draw(st.integers(0, append_ops(self.root, batch) - 1), label="crash op")
        injector = FaultInjector()
        engine = warm_engine(self.root, injector)
        injector.arm_crash(at_op=injector.ops + at)
        with pytest.raises(InjectedCrash):
            engine.append("f", batch)
        # The process is dead; what it still attempts fails inside the contract.
        within_contract(lambda: engine.qut("f", self.window))
        within_contract(engine.close)
        self.conn = repro.connect(self.root)
        recovered = keys_of(self.conn.engine.get_mod("f"))
        before = keys_of(TRAJECTORIES[: self.stored])
        after = keys_of(TRAJECTORIES[: self.stored + len(batch)])
        assert recovered in (before, after), f"crash at op {at} recovered neither state"
        self.stored = len(recovered)

    @precondition(lambda self: self.stored > 0)
    @rule(defect=st.sampled_from(sorted(DEFECTS)))
    @contract_only
    def damage(self, defect: str) -> None:
        self.conn.close()
        path = self.root / "f" / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        DEFECTS[defect](manifest)
        manifest["manifest_crc"] = manifest_checksum(manifest)
        path.write_text(json.dumps(manifest))
        self.conn = repro.connect(self.root)
        with tempfile.TemporaryDirectory() as scratch:
            csv = Path(scratch) / "f.csv"
            write_csv(MOD(name="f", trajectories=TRAJECTORIES[:2]), csv)
            for sql in STATEMENTS:
                with pytest.raises(CorruptManifestError):
                    self.conn.execute(sql.format(csv=csv)).fetchall()
        report = self.conn.verify(repair=True)
        assert report.clean and not (self.root / "f").exists()
        assert self.conn.engine.datasets() == []
        self.stored = 0

    @precondition(lambda self: self.stored > 0)
    @rule(data=st.data())
    @contract_only
    def lose(self, data) -> None:
        self.conn.close()
        directory = self.root / "f"
        manifest = json.loads((directory / MANIFEST_FILENAME).read_text())
        deltas = manifest["deltas"]
        lost = data.draw(st.sampled_from(["base", "last delta"] if deltas else ["base"]), label="lost")
        partition = deltas[-1]["partition"] if lost == "last delta" else manifest["frame_partition"]
        path = directory / f"{partition}.part"
        path.unlink()
        listing = sorted(os.listdir(directory))
        self.conn = repro.connect(self.root)
        for sql in READS:
            with pytest.raises(CorruptPartitionError):
                self.conn.execute(sql).fetchall()
            assert sorted(os.listdir(directory)) == listing, f"{sql} wrote into the damaged store"
        assert ("missing_partition", str(path)) in {(i.kind, i.path) for i in self.conn.verify().issues}
        self.conn.verify(repair=True)
        if lost == "base":
            assert self.conn.engine.datasets() == []
            self.stored = 0
        else:
            assert self.conn.engine.artifact_status("f")["degraded"]
            kept = [manifest["row_keys"], *(delta["row_keys"] for delta in deltas[:-1])]
            self.stored = sum(map(len, kept))
            assert [list(key) for key in self.conn.engine.frame("f").keys] == [k for keys in kept for k in keys]

    @precondition(lambda self: self.stored > 0)
    @rule(fractions=FRACTIONS)
    @contract_only
    def qut(self, fractions: tuple[float, float]) -> None:
        self.window = window_of(*fractions)
        sql = self.rows(self.window)
        fluent = self.conn.dataset("f").qut(self.window.tmin, self.window.tmax).run()
        assert sql == fluent
        engine = self.conn.engine
        answer = engine.qut("f", self.window)
        oracle = PerPartitionQuT(engine.retratree("f")).query(self.window)
        assert result_signature(answer) == result_signature(oracle)

    @precondition(lambda self: self.stored > 0)
    @rule()
    @contract_only
    def reopen(self) -> None:
        warm = self.rows(self.window)
        self.conn.close()
        self.conn = repro.connect(self.root)
        assert self.conn.engine.retratree("f").recovered
        assert self.rows(self.window) == warm

    @invariant()
    def holds_what_was_stored(self) -> None:
        if self.stored:
            assert len(self.conn.engine.get_mod("f")) == self.stored

    def teardown(self) -> None:
        self.conn.close()
        shutil.rmtree(self.root, ignore_errors=True)


DurableStore.TestCase.settings = settings(
    max_examples=6,
    stateful_step_count=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDurableStore = DurableStore.TestCase
