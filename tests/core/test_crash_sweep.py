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
import os
import shutil
from pathlib import Path

import pytest

from repro.core.engine import HermesEngine
from repro.hermes.mod import MOD
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.storage.catalog import MANIFEST_FILENAME, staged_tmp_path
from repro.storage.faults import FaultInjector, InjectedCrash, IOShim
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


class RecordingShim(IOShim):
    """A pass-through shim that logs every call that can put bytes on disk.

    ``log`` holds ``(kind, path)`` per call, ``kind`` one of ``open`` (for
    writing), ``write``, ``fsync``, ``replace`` (logged under its source and
    then as ``replaced`` under its target), ``unlink`` and ``fsync_dir``.
    """

    def __init__(self) -> None:
        self.log: list[tuple[str, Path]] = []

    def _note(self, kind: str, path) -> None:
        self.log.append((kind, Path(os.path.abspath(path))))

    def open(self, path, mode):
        if set(mode) & set("wax+"):
            self._note("open", path)
        return super().open(path, mode)

    def write(self, fh, data):
        self._note("write", fh.name)
        super().write(fh, data)

    def fsync(self, fh):
        self._note("fsync", fh.name)
        super().fsync(fh)

    def replace(self, src, dst):
        self._note("replace", src)
        self._note("replaced", dst)
        super().replace(src, dst)

    def unlink(self, path):
        self._note("unlink", path)
        super().unlink(path)

    def fsync_dir(self, path):
        self._note("fsync_dir", path)
        super().fsync_dir(path)


def unshimmed_files(root: Path, log) -> list[str]:
    """Files under ``root`` that no shimmed call opened for writing or renamed into place."""
    written = {path for kind, path in log if kind in ("open", "replaced")}
    return sorted(
        str(path.relative_to(root))
        for path in root.rglob("*")
        if path.is_file() and Path(os.path.abspath(path)) not in written
    )


def commit_order_violations(log) -> list[str]:
    """Every rename that did not run as stage → fsync → replace → directory fsync.

    For each ``replace`` the source must be the target's staging file, opened
    and written through the shim, with an ``fsync`` after its last write and
    before the rename; the target's directory must be fsynced after the
    rename and before the next one.
    """
    problems = []
    renames = [i for i, (kind, _) in enumerate(log) if kind == "replace"]
    for n, i in enumerate(renames):
        src, dst = log[i][1], log[i + 1][1]
        if src != staged_tmp_path(dst):
            problems.append(f"{dst.name}: renamed from {src.name}, not its staging file")
        staged = [kind for kind, path in log[:i] if path == src]
        opened = max((j for j, kind in enumerate(staged) if kind == "open"), default=None)
        if opened is None:
            problems.append(f"{dst.name}: staging file never opened through the shim")
            continue
        since = [kind for kind in staged[opened:] if kind in ("write", "fsync")]
        if "write" not in since:
            problems.append(f"{dst.name}: staging file never written through the shim")
        elif since[-1] != "fsync":
            problems.append(f"{dst.name}: renamed before its staged write was fsynced")
        end = renames[n + 1] if n + 1 < len(renames) else len(log)
        if ("fsync_dir", dst.parent) not in log[i + 2 : end]:
            problems.append(f"{dst.name}: directory not fsynced after the rename")
    return problems


class TestEveryWriteGoesThroughTheShim:
    """The sweep can only cut power at calls it sees: the workload makes no other."""

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("recorded")
        shim = RecordingShim()
        files = []
        for _name, phase in PHASES:
            engine = HermesEngine.on_disk(root, io=shim)
            phase(engine)
            engine.close()
            files.append(unshimmed_files(root, shim.log))
        return shim.log, files

    def test_every_stored_file_was_written_through_the_shim(self, recorded):
        log, files = recorded
        assert any(kind == "open" for kind, _ in log)
        assert files == [[] for _ in PHASES]

    def test_every_commit_stages_fsyncs_renames_then_fsyncs_the_directory(self, recorded):
        log, _ = recorded
        assert sum(kind == "replace" for kind, _ in log) >= 3
        assert commit_order_violations(log) == []


def staged_commit(directory: Path, *steps: str, source: Path | None = None):
    """The shim log of one manifest commit in ``directory`` made of ``steps``."""
    target = directory / MANIFEST_FILENAME
    tmp = source or staged_tmp_path(target)
    events = {
        "open": [("open", tmp)],
        "write": [("write", tmp)],
        "fsync": [("fsync", tmp)],
        "replace": [("replace", tmp), ("replaced", target)],
        "fsync_dir": [("fsync_dir", directory)],
    }
    return [event for step in steps for event in events[step]]


#: One commit's steps, and what the order check must say about them.
ORDER_CASES = {
    "intact": (("open", "write", "fsync", "replace", "fsync_dir"), None),
    "never-opened": (
        ("write", "fsync", "replace", "fsync_dir"),
        "staging file never opened through the shim",
    ),
    "never-written": (
        ("open", "fsync", "replace", "fsync_dir"),
        "staging file never written through the shim",
    ),
    "fsync-dropped": (
        ("open", "write", "replace", "fsync_dir"),
        "renamed before its staged write was fsynced",
    ),
    "fsync-after-replace": (
        ("open", "write", "replace", "fsync", "fsync_dir"),
        "renamed before its staged write was fsynced",
    ),
    "written-after-fsync": (
        ("open", "write", "fsync", "write", "replace", "fsync_dir"),
        "renamed before its staged write was fsynced",
    ),
    "fsync_dir-dropped": (
        ("open", "write", "fsync", "replace"),
        "directory not fsynced after the rename",
    ),
    "fsync_dir-before-replace": (
        ("open", "write", "fsync", "fsync_dir", "replace"),
        "directory not fsynced after the rename",
    ),
}


class TestTheShimChecksThemselves:
    """Each broken step of a commit, and each unshimmed file, is named."""

    @pytest.mark.parametrize(("steps", "problem"), ORDER_CASES.values(), ids=ORDER_CASES.keys())
    def test_the_order_check_names_each_broken_step(self, tmp_path, steps, problem):
        expected = [] if problem is None else [f"{MANIFEST_FILENAME}: {problem}"]
        assert commit_order_violations(staged_commit(tmp_path, *steps)) == expected

    def test_a_rename_from_another_file_is_named(self, tmp_path):
        other = tmp_path / "elsewhere.json"
        log = staged_commit(tmp_path, "open", "write", "fsync", "replace", "fsync_dir", source=other)
        assert commit_order_violations(log) == [
            "manifest.json: renamed from elsewhere.json, not its staging file"
        ]

    def test_each_commit_needs_its_own_directory_fsync(self, tmp_path):
        first = staged_commit(tmp_path, "open", "write", "fsync", "replace")
        second = staged_commit(tmp_path, "open", "write", "fsync", "replace", "fsync_dir")
        assert commit_order_violations(first + second) == [
            "manifest.json: directory not fsynced after the rename"
        ]
        assert commit_order_violations(second + second) == []

    def test_a_file_written_around_the_shim_is_listed(self, tmp_path):
        (tmp_path / "raw.part").write_bytes(b"x")
        (tmp_path / "shimmed.part").write_bytes(b"x")
        (tmp_path / MANIFEST_FILENAME).write_text("{}")
        log = [("open", tmp_path / "shimmed.part"), *staged_commit(tmp_path, "replace")]
        assert unshimmed_files(tmp_path, log) == ["raw.part"]

    def test_a_file_in_a_subdirectory_is_listed(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "raw.part").write_bytes(b"x")
        assert unshimmed_files(tmp_path, []) == [str(Path("d") / "raw.part")]


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
