"""A dataset whose manifest cannot be trusted gives every statement one answer.

The store holds two datasets, ``d`` and ``ok``.  Restamping ``d``'s manifest
over a defect its stamp cannot vouch for — a page CRC that is not a number,
a partition without its CRC list, a tree count that is ``null``, no row
order — withholds ``d``: every statement on it raises
``CorruptManifestError`` (``DROP`` gives it up), ``ok`` keeps answering,
and ``repro-fsck`` reports the manifest as unsupported.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

import repro
from repro.datagen import lane_scenario
from repro.hermes.io import write_csv
from repro.hermes.mod import MOD
from repro.storage.catalog import MANIFEST_FILENAME, manifest_checksum
from repro.storage.errors import CorruptManifestError
from repro.storage.fsck import fsck_store

LANES, _TRUTH = lane_scenario(n_trajectories=10, n_lanes=2, n_samples=12, seed=3, name="d")
PERIOD = LANES.period
QUT = f"SELECT QUT(d, {PERIOD.tmin}, {PERIOD.tmax})"


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    """``d`` (base, one delta, a persisted tree) and ``ok`` beside it."""
    root = tmp_path_factory.mktemp("withheld") / "s"
    with repro.connect(root) as conn:
        trajectories = LANES.trajectories()
        conn.engine.load_mod("d", MOD(name="d", trajectories=trajectories[:8]))
        conn.execute(QUT).fetchall()
        assert conn.dataset("d").append(trajectories[8:]).persisted
        conn.engine.load_mod("ok", MOD(name="ok", trajectories=trajectories[:3]))
    return root


def restamped(store: Path, tmp_path: Path, damage) -> Path:
    """A copy of ``store`` with ``damage`` applied to ``d``'s manifest and its stamp renewed."""
    root = tmp_path / "s"
    shutil.copytree(store, root)
    path = root / "d" / MANIFEST_FILENAME
    manifest = json.loads(path.read_text())
    damage(manifest, root / "d")
    manifest["manifest_crc"] = manifest_checksum(manifest)
    path.write_text(json.dumps(manifest))
    return root


def non_numeric_crc(manifest: dict, directory: Path) -> None:
    manifest["checksums"][manifest["frame_partition"]][0] = "garbage"


def crc_list_missing_and_a_byte_flipped(manifest: dict, directory: Path) -> None:
    base = manifest["frame_partition"]
    del manifest["checksums"][base]
    part = directory / f"{base}.part"
    data = bytearray(part.read_bytes())
    data[len(data) - 100] ^= 0x10
    part.write_bytes(bytes(data))


def null_tree_count(manifest: dict, directory: Path) -> None:
    manifest["tree"]["subchunks"][0]["unclustered_count"] = None


def no_row_keys(manifest: dict, directory: Path) -> None:
    del manifest["row_keys"]


DEFECTS = {
    "non-numeric-crc": non_numeric_crc,
    "crc-list-missing-and-a-byte-flipped": crc_list_missing_and_a_byte_flipped,
    "null-tree-count": null_tree_count,
    "no-row-keys": no_row_keys,
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_the_damaged_dataset_is_withheld_and_the_healthy_one_answers(store, tmp_path, defect):
    root = restamped(store, tmp_path, DEFECTS[defect])
    with repro.connect(root) as conn:
        assert conn.execute("SELECT COUNT(*) FROM ok").fetchall() == [{"count": 3 * 12}]
        assert [row["dataset"] for row in conn.execute("SHOW DATASETS").fetchall()] == ["ok"]
        with pytest.raises(CorruptManifestError, match="repro-fsck"):
            conn.execute("SELECT * FROM d").fetchall()
    assert [(i.kind, i.path) for i in fsck_store(root).errors] == [
        ("manifest_unsupported", str(root / "d" / MANIFEST_FILENAME))
    ]


STATEMENTS = {
    "select": "SELECT * FROM d",
    "count": "SELECT COUNT(*) FROM d",
    "insert": "INSERT INTO d VALUES ('new', '0', 1.0, 2.0, 3.0), ('new', '0', 1.5, 2.5, 13.0)",
    "summary": "SELECT SUMMARY(d)",
    "s2t": "SELECT S2T(d)",
    "qut": QUT,
    "create": "CREATE DATASET d",
    "load": "LOAD DATASET d FROM '{csv}'",
}


@pytest.mark.parametrize("statement", STATEMENTS)
def test_every_statement_on_a_withheld_dataset_raises_the_diagnostic(store, tmp_path, statement):
    root = restamped(store, tmp_path, non_numeric_crc)
    csv = tmp_path / "d.csv"
    write_csv(MOD(name="d", trajectories=LANES.trajectories()[:2]), csv)
    before = sorted(p.name for p in (root / "d").iterdir())
    with repro.connect(root) as conn:
        for _ in range(2):  # the same answer on a retry
            with pytest.raises(CorruptManifestError, match="no numeric page checksums"):
                conn.execute(STATEMENTS[statement].format(csv=csv)).fetchall()
        with pytest.raises(CorruptManifestError):
            conn.engine.get_mod("d")
        with pytest.raises(CorruptManifestError):
            conn.engine.load_mod("d", MOD(name="d"))
    assert sorted(p.name for p in (root / "d").iterdir()) == before


def test_drop_gives_a_withheld_dataset_up(store, tmp_path):
    root = restamped(store, tmp_path, non_numeric_crc)
    with repro.connect(root) as conn:
        assert conn.execute("DROP DATASET d").fetchall() == [{"dropped": "d"}]
        assert not (root / "d").exists()
        assert conn.execute("CREATE DATASET d").fetchall() == [{"created": "d"}]
    assert fsck_store(root).clean


def test_unknown_names_keep_their_errors(store, tmp_path):
    from repro.sql.errors import SQLExecutionError

    root = restamped(store, tmp_path, non_numeric_crc)
    with repro.connect(root) as conn:
        with pytest.raises(SQLExecutionError, match="unknown dataset 'nope'"):
            conn.execute("SELECT COUNT(*) FROM nope").fetchall()
        with pytest.raises(KeyError):
            conn.engine.get_mod("nope")


def test_repair_quarantines_and_the_name_is_free_again(store, tmp_path):
    root = restamped(store, tmp_path, null_tree_count)
    assert fsck_store(root, repair=True).clean
    assert not (root / "d").exists()
    with repro.connect(root) as conn:
        assert conn.engine.datasets() == ["ok"]
        assert conn.execute("CREATE DATASET d").fetchall() == [{"created": "d"}]


def test_repro_sql_refuses_a_withheld_dataset_instead_of_replacing_it(store, tmp_path, capsys):
    from repro.cli import main_sql

    root = restamped(store, tmp_path, non_numeric_crc)
    before = sorted(p.name for p in (root / "d").iterdir())
    assert main_sql(["--disk", str(root), "--dataset", "d", "SELECT SUMMARY(d)"]) == 1
    assert "repro-fsck" in capsys.readouterr().err
    assert sorted(p.name for p in (root / "d").iterdir()) == before
