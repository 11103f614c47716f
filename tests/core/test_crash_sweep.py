"""The crash-point sweep: every injected-op index, every mutation path.

The tentpole robustness guarantee: simulate a process death at *every*
mutating OS call (page write, fsync, manifest rename, sweep unlink) of
every engine mutation — ``load_mod``, tree persistence, ``append``,
``drop`` — then cold-restart, run ``repro-fsck --repair``, and assert the
recovered store holds **exactly** the pre-op or the post-op dataset state,
answers QuT **bit-identically** to that state, and carries zero orphan
files.

The comparison is at the *dataset-state* level (base partition, row keys,
committed deltas) rather than raw manifest bytes: incremental tree
maintenance legitimately mutates committed tree partitions in place before
the commit, so a crash inside that window recovers the pre-op dataset with
the (derived, rebuildable) tree degraded to a rebuild — same answers,
different manifest bytes.  QuT signatures are what the paper's user
observes, and those must match exactly.
"""

import json
import shutil

import pytest

from repro.core.engine import HermesEngine
from repro.hermes.mod import MOD
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.storage.catalog import MANIFEST_FILENAME
from repro.storage.faults import FaultInjector, InjectedCrash
from repro.storage.fsck import fsck_store

from tests.conftest import make_linear_trajectory

PARAMS = QuTParams(delta=50.0)
WINDOW = Period(20.0, 70.0)


def base_mod() -> MOD:
    """Six trajectories in two lanes — enough for real clusters, tiny pages."""
    mod = MOD(name="d")
    for i, y in enumerate((0.0, 0.4, 0.8, 5.0, 5.4, 5.8)):
        mod.add(
            make_linear_trajectory(f"o{i}", "0", (0.0, y), (10.0, y), 0.0, 100.0, 12)
        )
    return mod


def batch() -> list:
    return [
        make_linear_trajectory("n0", "0", (0.0, 1.2), (10.0, 1.2), 0.0, 100.0, 12),
        make_linear_trajectory("n1", "0", (0.0, 4.6), (10.0, 4.6), 0.0, 100.0, 12),
    ]


def phase_load(engine) -> None:
    engine.load_mod("d", base_mod())


def phase_tree(engine) -> None:
    engine.retratree("d", PARAMS)


def phase_append(engine) -> None:
    # Warm the tree first (recovery only — reads, no mutating ops), so the
    # append exercises incremental maintenance + the combined commit.
    engine.retratree("d", PARAMS)
    engine.append("d", batch())


def phase_drop(engine) -> None:
    engine.drop("d")


PHASES = (
    ("load", phase_load),
    ("tree", phase_tree),
    ("append", phase_append),
    ("drop", phase_drop),
)


def essence(root):
    """The committed *dataset state*: base partition, row keys, deltas.

    ``None`` when no dataset is committed.  Deliberately excludes the tree
    (derived, rebuildable) and the integrity stamps over it.
    """
    path = root / "d" / MANIFEST_FILENAME
    if not path.exists():
        return None
    manifest = json.loads(path.read_text())
    return (
        manifest["frame_partition"],
        tuple(tuple(k) for k in manifest["row_keys"]),
        tuple(
            (d["partition"], tuple(tuple(k) for k in d["row_keys"]))
            for d in manifest["deltas"]
        ),
    )


def qut_signature(root):
    """The exact QuT answer over WINDOW, or ``None`` when no dataset exists.

    The signature is every (parent key, sample bounds, cluster id) triple —
    bit-level equality of the clustering answer, the user-visible currency
    of the whole durability story.
    """
    engine = HermesEngine.on_disk(root)
    try:
        if "d" not in engine.datasets():
            return None
        result = engine.qut("d", WINDOW, params=PARAMS)
        return tuple(
            sorted(
                (sub.parent_key, sub.start_idx, sub.end_idx, -1 if cid is None else cid)
                for sub, cid in result.all_subtrajectories()
            )
        )
    finally:
        engine.close()


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Reference states around each phase, their QuT signatures, op counts."""
    base = tmp_path_factory.mktemp("sweep")
    states = [base / "state0"]
    states[0].mkdir()
    for i, (_name, phase) in enumerate(PHASES):
        nxt = base / f"state{i + 1}"
        shutil.copytree(states[i], nxt)
        engine = HermesEngine.on_disk(nxt)
        phase(engine)
        engine.close()
        states.append(nxt)
    snaps = []
    for i, state in enumerate(states):
        probe = base / f"probe{i}"
        shutil.copytree(state, probe)  # the probe may build+persist a tree
        snaps.append({"essence": essence(state), "signature": qut_signature(probe)})
    counts = []
    for i, (_name, phase) in enumerate(PHASES):
        work = base / f"count{i}"
        shutil.copytree(states[i], work)
        injector = FaultInjector()
        engine = HermesEngine.on_disk(work, io=injector)
        phase(engine)
        counts.append(injector.ops)
        engine.close()
    return states, snaps, counts


@pytest.mark.parametrize("phase_idx", range(len(PHASES)), ids=[p[0] for p in PHASES])
def test_crash_sweep(chain, tmp_path, phase_idx):
    states, snaps, counts = chain
    name, phase = PHASES[phase_idx]
    total = counts[phase_idx]
    assert total > 0, f"phase {name} performed no mutating ops — nothing to sweep"
    pre, post = snaps[phase_idx], snaps[phase_idx + 1]

    for at in range(total):
        work = tmp_path / f"{name}-{at}"
        shutil.copytree(states[phase_idx], work)
        injector = FaultInjector()
        injector.arm_crash(at_op=at)
        engine = HermesEngine.on_disk(work, io=injector)
        with pytest.raises(InjectedCrash):
            phase(engine)
        # The process is dead: no close(), no flush — the injector refuses
        # every further call anyway, like the kernel after a SIGKILL.
        del engine

        report = fsck_store(work, repair=True)
        assert report.clean, (
            f"{name}@{at}: fsck could not repair: "
            f"{[issue.as_row() for issue in report.issues]}"
        )
        debris = fsck_store(work)
        assert debris.issues == [], (
            f"{name}@{at}: debris survived repair: "
            f"{[issue.as_row() for issue in debris.issues]}"
        )

        recovered = essence(work)
        if recovered == pre["essence"]:
            expected = pre
        elif recovered == post["essence"]:
            expected = post
        else:
            raise AssertionError(
                f"{name}@{at}: recovered dataset state is neither pre-op nor "
                f"post-op: {recovered!r}"
            )
        assert qut_signature(work) == expected["signature"], (
            f"{name}@{at}: QuT answer diverged from the recovered "
            f"{'pre' if expected is pre else 'post'}-op state"
        )


class TestColdStartOrphanSweep:
    """Satellite: crash-window orphans are reclaimed at cold start, pre-fsck."""

    def test_cold_open_sweeps_orphans_and_staging(self, tmp_path):
        engine = HermesEngine.on_disk(tmp_path / "s")
        engine.load_mod("d", base_mod())
        engine.close()
        d = tmp_path / "s" / "d"
        (d / "d__dataset_g99.part").write_bytes(b"\0" * 8192)  # crashed staging
        (d / "manifest.json.tmp").write_text("{}")
        cold = HermesEngine.on_disk(tmp_path / "s")
        cold.close()
        assert not (d / "d__dataset_g99.part").exists()
        assert not (d / "manifest.json.tmp").exists()
        assert fsck_store(tmp_path / "s").issues == []

    def test_cold_open_never_deletes_referenced_partitions(self, tmp_path):
        engine = HermesEngine.on_disk(tmp_path / "s")
        engine.load_mod("d", base_mod())
        engine.retratree("d", PARAMS)
        engine.close()
        d = tmp_path / "s" / "d"
        before = sorted(p.name for p in d.iterdir())
        cold = HermesEngine.on_disk(tmp_path / "s")
        assert len(cold.get_mod("d")) == 6
        cold.close()
        assert sorted(p.name for p in d.iterdir()) == before


class TestTransientAppendRetries:
    """Satellite: transient I/O on the commit path is absorbed and reported."""

    def test_append_survives_flaky_fsync_and_reports_retries(self, tmp_path):
        injector = FaultInjector()
        engine = HermesEngine.on_disk(tmp_path / "s", io=injector)
        engine.load_mod("d", base_mod())
        injector.fail_next("fsync", count=2)
        report = engine.append("d", batch())
        assert report.persisted
        assert report.io_retries >= 2
        assert report.as_dict()["io_retries"] == report.io_retries
        engine.close()
        # The committed store is fully intact despite the flaky disk.
        assert fsck_store(tmp_path / "s").clean
