"""Integrity properties: bit-flip detection, a rebuild past a damaged tree
partition, and format-4-only manifest acceptance."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main_fsck
from repro.core.engine import HermesEngine
from repro.datagen import lane_scenario
from repro.qut.retratree import ReTraTree
from repro.storage.catalog import MANIFEST_FILENAME
from repro.storage.errors import CorruptManifestError, StorageCorruptionError
from repro.storage.fsck import QUARANTINE_DIRNAME, fsck_store

from tests.conftest import make_linear_trajectory


def _build_store(root):
    """A store with a dataset archive, one delta, and a persisted tree."""
    mod, _truth = lane_scenario(n_trajectories=16, n_lanes=2, n_samples=24, seed=11)
    engine = HermesEngine.on_disk(root)
    engine.load_mod("d", mod)
    engine.retratree("d")
    engine.append(
        "d", [make_linear_trajectory("late", "0", (0.0, 1.0), (10.0, 1.0), 0.0, 100.0)]
    )
    engine.close()


@pytest.fixture(scope="module")
def flip_store(tmp_path_factory):
    """The store plus every non-empty persisted partition file in it."""
    root = tmp_path_factory.mktemp("bitflip") / "s"
    _build_store(root)
    parts = sorted(
        p for p in (root / "d").glob("*.part") if p.stat().st_size > 0
    )
    names = {p.name for p in parts}
    # The satellite guarantee covers both kinds of persisted state: the
    # dataset archive AND the clustering representatives.
    assert any("__dataset" in n for n in names)
    assert any("reps" in n for n in names), f"no non-empty reps partition in {names}"
    return root, parts


class TestBitFlipDetection:
    """Property: ANY single-bit flip in ANY persisted partition is detected."""

    @given(data=st.data())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_single_bit_flip_is_detected(self, flip_store, data):
        root, parts = flip_store
        path = parts[data.draw(st.integers(0, len(parts) - 1), label="partition")]
        size = path.stat().st_size
        offset = data.draw(st.integers(0, size - 1), label="byte offset")
        bit = data.draw(st.integers(0, 7), label="bit")

        original = path.read_bytes()
        flipped = bytearray(original)
        flipped[offset] ^= 1 << bit
        path.write_bytes(bytes(flipped))
        try:
            # fsck pins the damage to the exact file via the page CRCs.
            report = fsck_store(root)
            assert not report.clean
            assert any(
                issue.kind == "checksum_mismatch" and issue.path == str(path)
                for issue in report.issues
            )
            # For dataset partitions a cold engine refuses to decode the
            # damaged bytes outright.  (A damaged *tree* partition instead
            # degrades to a rebuild — derived state, never served corrupt —
            # which re-persists the tree; TestTreePartitionBitFlips covers
            # that path on a copy of its store per example, since a rebuild
            # here would mutate this module-scoped store between examples.)
            if "__dataset" in path.name:
                engine = HermesEngine.on_disk(root)
                try:
                    with pytest.raises(StorageCorruptionError):
                        engine.get_mod("d")
                finally:
                    engine.close()
        finally:
            path.write_bytes(original)


@pytest.fixture(scope="module")
def tree_store(tmp_path_factory):
    """A closed store with a persisted tree, the warm QuT rows over a window,
    and every non-empty tree partition file (members, unclustered, reps)."""
    root = tmp_path_factory.mktemp("treeflip") / "s"
    mod, _truth = lane_scenario(n_trajectories=16, n_lanes=2, n_samples=24, seed=11, name="d")
    conn = repro.connect(root)
    conn.engine.load_mod("d", mod)
    window = {"wi": mod.period.tmin + 0.2 * mod.period.duration, "we": mod.period.tmax}
    warm = conn.execute(TREE_QUT, window).fetchall()
    conn.close()
    section = json.loads((root / "d" / MANIFEST_FILENAME).read_text())["tree"]
    names = [section["reps_partition"]] + [
        name
        for sc in section["subchunks"]
        for name in [sc["unclustered_partition"], *(e["partition"] for e in sc["entries"])]
    ]
    parts = [root / "d" / f"{name}.part" for name in names]
    parts = [p for p in parts if p.exists() and p.stat().st_size > 0]
    kinds = {("reps" if p.stem == section["reps_partition"] else "tree") for p in parts}
    assert kinds == {"reps", "tree"} and len(parts) > 2
    return root, window, warm, parts


TREE_QUT = "SELECT QUT(d, :wi, :we)"


class TestTreePartitionBitFlips:
    """Property: a bit flipped in a member, unclustered or representatives
    partition makes a cold engine rebuild the tree, never answer from it —
    and the rebuilt answer is the warm one."""

    @given(data=st.data())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_flip_degrades_to_a_rebuild_with_the_warm_rows(self, tree_store, tmp_path, data):
        root, window, warm, parts = tree_store
        victim = parts[data.draw(st.integers(0, len(parts) - 1), label="partition")]
        offset = data.draw(st.integers(0, victim.stat().st_size - 1), label="byte offset")
        bit = data.draw(st.integers(0, 7), label="bit")
        copy = Path(tempfile.mkdtemp(dir=tmp_path)) / "s"
        shutil.copytree(root, copy)
        path = copy / victim.relative_to(root)
        flipped = bytearray(path.read_bytes())
        flipped[offset] ^= 1 << bit
        path.write_bytes(bytes(flipped))

        builds = ReTraTree.build_calls
        conn = repro.connect(copy)
        try:
            assert conn.execute(TREE_QUT, window).fetchall() == warm
            assert not conn.engine.retratree("d").recovered
            assert ReTraTree.build_calls == builds + 1
        finally:
            conn.close()
        shutil.rmtree(copy.parent)


class TestCorruptManifestRecovery:
    """Cold-start recovery must never act on a manifest that fails its CRC."""

    def test_bitflipped_manifest_withholds_dataset_and_sweeps_nothing(self, tmp_path):
        root = tmp_path / "s"
        _build_store(root)
        d = root / "d"
        manifest_path = d / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        # A one-character flip inside the committed partition name: the
        # JSON still parses, the manifest_crc no longer matches, and the
        # *real* partition file now looks unreferenced — exactly the shape
        # that must NOT trigger the recovery orphan sweep.
        manifest["frame_partition"] = manifest["frame_partition"][:-1] + "X"
        manifest_path.write_text(json.dumps(manifest))

        before = sorted(p.name for p in d.glob("*.part"))
        engine = HermesEngine.on_disk(root)  # must not raise, must not delete
        try:
            assert engine.datasets() == []
            with pytest.raises(StorageCorruptionError, match="repro-fsck"):
                engine.get_mod("d")
        finally:
            engine.close()
        # Every byte is still in place for repro-fsck to diagnose.
        assert sorted(p.name for p in d.glob("*.part")) == before

    def test_checksum_failure_repeats_on_retry(self, tmp_path):
        """A failed verification must not consume the expectation: the
        retry re-verifies and raises the same diagnostic instead of opening
        the corrupt partition unverified."""
        root = tmp_path / "s"
        _build_store(root)
        d = root / "d"
        manifest = json.loads((d / MANIFEST_FILENAME).read_text())
        path = d / f"{manifest['frame_partition']}.part"
        data = bytearray(path.read_bytes())
        data[100] ^= 1
        path.write_bytes(bytes(data))

        engine = HermesEngine.on_disk(root)
        try:
            with pytest.raises(StorageCorruptionError):
                engine.get_mod("d")
            with pytest.raises(StorageCorruptionError):
                engine.get_mod("d")
        finally:
            engine.close()


STRIPPED = {
    "no-crc": lambda m: m.pop("manifest_crc"),
    "no-checksums": lambda m: m.pop("checksums"),
    "no-stamps-two-rows-dropped": lambda m: (
        m.pop("manifest_crc"),
        m.pop("checksums"),
        m.__setitem__("row_keys", m["row_keys"][:-2]),
    ),
    "format-1": lambda m: m.__setitem__("format_version", 1),
    "format-2": lambda m: m.__setitem__("format_version", 2),
    "format-3": lambda m: m.__setitem__("format_version", 3),
    "format-99": lambda m: m.__setitem__("format_version", 99),
}


class TestStrippedStampsAreDamageNotLegacy:
    """Format 4 only: a manifest without its stamps, or claiming another
    format, is damaged — never served as an "unverifiable legacy" store."""

    @pytest.mark.parametrize("strip", STRIPPED.values(), ids=STRIPPED.keys())
    def test_withheld_reported_and_never_blessed(self, tmp_path, strip):
        root = tmp_path / "s"
        _build_store(root)
        manifest_path = root / "d" / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        restampable = "checksums" in manifest and strip is STRIPPED["no-crc"]
        strip(manifest)
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

        cold = HermesEngine.on_disk(root)
        try:
            assert cold.datasets() == []
            with pytest.raises(CorruptManifestError, match="repro-fsck"):
                cold.get_mod("d")
            assert cold.artifact_status("d")["degraded"] is True
        finally:
            cold.close()

        report = fsck_store(root)
        assert not report.clean
        assert {i.severity for i in report.issues} == {"error"}
        assert main_fsck([str(root)]) == 1

        assert fsck_store(root, repair=True).clean
        assert fsck_store(root).issues == []
        reopened = HermesEngine.on_disk(root)
        try:
            if restampable:
                # Every referenced partition matched the checksums map, so
                # the content is verified and only the stamp was renewed.
                assert len(reopened.get_mod("d")) == 17
            else:
                # Nothing to verify the content against: quarantined, bytes
                # kept for a human, never served.
                assert reopened.datasets() == []
                assert (root / QUARANTINE_DIRNAME / "d" / MANIFEST_FILENAME).exists()
        finally:
            reopened.close()

    def test_restamp_refused_when_a_partition_fails_the_checksums_map(self, tmp_path):
        root = tmp_path / "s"
        _build_store(root)
        manifest_path = root / "d" / MANIFEST_FILENAME
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("manifest_crc")
        manifest_path.write_text(json.dumps(manifest))
        base = root / "d" / f"{manifest['frame_partition']}.part"
        data = bytearray(base.read_bytes())
        data[100] ^= 1
        base.write_bytes(bytes(data))

        assert fsck_store(root, repair=True).clean
        assert not (root / "d").exists()  # quarantined, not re-stamped
