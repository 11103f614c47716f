"""The on-disk format, byte for byte: a fixed small store hashes as checked in.

A store of ``lane_scenario`` (40 trajectories, seed 3), its ReTraTree, and
one append of 10 more is written by ``HermesEngine.on_disk`` and closed;
the SHA-256 of every file it leaves must equal ``golden_store_v4.json``.
A change to how records, pages, partitions or the manifest are written —
intended or not — fails here.  A deliberate format change regenerates the
digest file with::

    PYTHONPATH=src python -m tests.storage.test_golden_store
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.core.engine import HermesEngine
from repro.datagen import lane_scenario
from repro.hermes.mod import MOD
from repro.storage.durable import MANIFEST_FORMAT

GOLDEN = Path(__file__).with_name("golden_store_v4.json")


def build_store(root: Path) -> None:
    mod, _truth = lane_scenario(n_trajectories=50, seed=3, name="lanes")
    trajs = mod.trajectories()
    engine = HermesEngine.on_disk(root)
    engine.load_mod("lanes", MOD(name="lanes", trajectories=trajs[:40]))
    engine.retratree("lanes")
    assert engine.append("lanes", trajs[40:]).persisted
    engine.close()


def store_digests(root: Path) -> dict[str, str]:
    """``{path relative to root: sha256 hex}`` of every file under ``root``."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_format_4_store_bytes_did_not_move(tmp_path):
    build_store(tmp_path / "store")
    golden = json.loads(GOLDEN.read_text())
    assert golden["format_version"] == MANIFEST_FORMAT == 4
    assert store_digests(tmp_path / "store") == golden["files"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        build_store(Path(scratch) / "store")
        files = store_digests(Path(scratch) / "store")
    GOLDEN.write_text(json.dumps({"format_version": MANIFEST_FORMAT, "files": files}, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(files)} digests to {GOLDEN}\n")
