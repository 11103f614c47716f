"""The cold open and ``repro-fsck`` judge a partition with one verifier.

Each damage shape below is applied to one partition — the base archive, an
append delta or a ReTraTree member partition — of a closed store.  Then the
verified open (the durable catalog's storage manager opening the partition
with the page CRCs and record count the manifest recorded) must raise the
``CorruptPartitionError`` whose kind and text fsck reports for that file,
the kind must be the one fsck has always used for the shape, and neither a
``fsck_store(repair=False)`` run nor the refused open may open anything for
writing or create, change or delete a file.
"""

from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path

import pytest

import repro
from repro.core.engine import HermesEngine
from repro.datagen import lane_scenario
from repro.hermes.mod import MOD
from repro.storage.catalog import MANIFEST_FILENAME, StorageManager, manifest_checksum
from repro.storage.durable import DurableCatalog, manifest_partitions
from repro.storage.errors import CorruptPartitionError
from repro.storage.fsck import fsck_store
from repro.storage.heapfile import read_records
from repro.storage.page import PAGE_SIZE
from tests.core.test_crash_sweep import RecordingShim

LANES, _TRUTH = lane_scenario(n_trajectories=10, n_lanes=2, n_samples=12, seed=3, name="d")


def _crcs(image: bytes) -> list[int]:
    return [zlib.crc32(image[i : i + PAGE_SIZE]) for i in range(0, len(image), PAGE_SIZE)]


def _flip(path: Path, manifest: dict) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) - 100] ^= 0x10
    path.write_bytes(bytes(data))


def _torn(path: Path, manifest: dict) -> None:
    path.write_bytes(path.read_bytes()[:-100])


def _extra_page(path: Path, manifest: dict) -> None:
    data = path.read_bytes()
    path.write_bytes(data + data[:PAGE_SIZE])


def _undecodable(path: Path, manifest: dict) -> None:
    """A slot directory claiming more slots than a page holds, under restamped CRCs."""
    data = bytearray(path.read_bytes())
    data[0:2] = (5000).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    manifest["checksums"][path.stem] = _crcs(bytes(data))


def _one_record_fewer(path: Path, manifest: dict) -> None:
    """The partition rewritten without its first record, CRCs restamped."""
    work = path.parent.parent.parent / "rewrite"
    work.mkdir()
    shutil.copy(path, work / "src.part")
    storage = StorageManager(work)
    records = read_records([storage.get_or_create("src").heapfile])
    rewritten = storage.create_partition("dst").heapfile
    for start, length in list(zip(records.starts.tolist(), records.lengths.tolist()))[1:]:
        rewritten.insert(records.image[start : start + length])
    storage.checkpoint()
    storage.close()
    image = (work / "dst.part").read_bytes()
    shutil.rmtree(work)
    path.write_bytes(image)
    manifest["checksums"][path.stem] = _crcs(image)


def _deleted(path: Path, manifest: dict) -> None:
    path.unlink()


#: shape -> (damage, the fsck kind it has always been reported under)
SHAPES = {
    "deleted-file": (_deleted, "missing_partition"),
    "flipped-byte": (_flip, "checksum_mismatch"),
    "torn-tail": (_torn, "torn_partition"),
    "extra-page": (_extra_page, "checksum_mismatch"),
    "undecodable-heap": (_undecodable, "torn_partition"),
    "one-record-fewer": (_one_record_fewer, "torn_partition"),
}


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    """Base archive, one delta and a persisted tree."""
    root = tmp_path_factory.mktemp("open-fsck") / "s"
    with repro.connect(root) as conn:
        trajectories = LANES.trajectories()
        conn.engine.load_mod("d", MOD(name="d", trajectories=trajectories[:8]))
        period = LANES.period
        conn.execute(f"SELECT QUT(d, {period.tmin}, {period.tmax})").fetchall()
        assert conn.dataset("d").append(trajectories[8:]).persisted
    return root


def _victim(manifest: dict, role: str) -> str:
    names = [
        name
        for name, expected, kind in manifest_partitions(manifest)
        if kind.startswith(role) and expected.count and expected.count > 1
    ]
    return names[0]


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("role", ["base", "delta", "tree"])
@pytest.mark.parametrize("shape", SHAPES)
def test_the_open_raises_what_fsck_reports(store, tmp_path, shape, role):
    root = tmp_path / "s"
    shutil.copytree(store, root)
    manifest_path = root / "d" / MANIFEST_FILENAME
    manifest = json.loads(manifest_path.read_text())
    name = _victim(manifest, role)
    damage, kind = SHAPES[shape]
    damage(root / "d" / f"{name}.part", manifest)
    manifest["manifest_crc"] = manifest_checksum(manifest)
    manifest_path.write_text(json.dumps(manifest))

    shim = RecordingShim()
    before = _files(root)
    report = fsck_store(root, io=shim)
    assert shim.log == []
    assert _files(root) == before
    [finding] = report.issues
    assert (finding.kind, finding.path) == (kind, str(root / "d" / f"{name}.part"))

    catalog = DurableCatalog(root)
    try:
        expected = {n: e for n, e, _ in manifest_partitions(manifest)}[name]
        with pytest.raises(CorruptPartitionError) as caught:
            catalog.storage("d").open_partitions([(name, expected.count)])
    finally:
        catalog.close()
    assert caught.value.kind == kind
    assert caught.value.detail == finding.detail
    assert caught.value.path == root / "d" / f"{name}.part"

    if role != "tree":
        # The engine's archive decode is the same open: the same error.
        engine = HermesEngine.on_disk(root)
        try:
            with pytest.raises(CorruptPartitionError) as served:
                engine.get_mod("d")
        finally:
            engine.close()
        assert str(served.value) == str(caught.value)
    assert _files(root) == before
