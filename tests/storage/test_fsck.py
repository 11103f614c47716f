"""repro-fsck: detection and repair of every corruption class it knows."""

import json

import pytest

from repro.core.engine import HermesEngine
from repro.hermes.types import Period
from repro.storage.catalog import MANIFEST_FILENAME
from repro.storage.fsck import QUARANTINE_DIRNAME, fsck_store

from tests.conftest import make_linear_trajectory


def build_store(root, with_tree=True, with_delta=True):
    """A committed dataset ``d`` under ``root`` (+ tree, + one append delta)."""
    engine = HermesEngine.on_disk(root)
    mod_trajs = [
        make_linear_trajectory("a", "0", (0.0, 0.0), (10.0, 0.0)),
        make_linear_trajectory("b", "0", (0.0, 0.5), (10.0, 0.5)),
        make_linear_trajectory("c", "0", (0.0, 1.0), (10.0, 1.0)),
    ]
    from repro.hermes.mod import MOD

    engine.load_mod("d", MOD(name="d", trajectories=mod_trajs))
    if with_tree:
        engine.retratree("d")
    if with_delta:
        engine.append("d", [make_linear_trajectory("x", "9", (0.0, 2.0), (10.0, 2.0))])
    engine.close()
    return root / "d"


def manifest_of(dataset_dir):
    return json.loads((dataset_dir / MANIFEST_FILENAME).read_text())


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


class TestCleanStore:
    def test_clean_store_reports_clean(self, tmp_path):
        build_store(tmp_path / "s")
        report = fsck_store(tmp_path / "s")
        assert report.clean
        assert report.datasets == ["d"]
        assert report.errors == []

    def test_missing_root_is_clean(self, tmp_path):
        assert fsck_store(tmp_path / "nothing-here").clean

    def test_summary_mentions_dataset_count(self, tmp_path):
        build_store(tmp_path / "s")
        assert "1 dataset(s)" in fsck_store(tmp_path / "s").summary()


class TestDetection:
    def test_checksum_mismatch_detected(self, tmp_path):
        d = build_store(tmp_path / "s")
        base = manifest_of(d)["frame_partition"]
        flip_byte(d / f"{base}.part", 100)
        report = fsck_store(tmp_path / "s")
        assert not report.clean
        assert any(i.kind == "checksum_mismatch" for i in report.errors)

    def test_torn_partition_detected(self, tmp_path):
        d = build_store(tmp_path / "s")
        base = manifest_of(d)["frame_partition"]
        path = d / f"{base}.part"
        path.write_bytes(path.read_bytes()[:-100])  # torn tail
        report = fsck_store(tmp_path / "s")
        assert any(i.kind in ("torn_partition", "checksum_mismatch") for i in report.errors)

    def test_missing_partition_detected(self, tmp_path):
        d = build_store(tmp_path / "s")
        base = manifest_of(d)["frame_partition"]
        (d / f"{base}.part").unlink()
        report = fsck_store(tmp_path / "s")
        assert any(i.kind == "missing_partition" for i in report.errors)

    def test_orphan_and_staging_files_are_warnings(self, tmp_path):
        d = build_store(tmp_path / "s")
        (d / "zombie_g99.part").write_bytes(b"\0" * 8192)
        (d / "manifest.json.tmp").write_text("{}")
        report = fsck_store(tmp_path / "s")
        kinds = {i.kind for i in report.issues}
        assert {"orphan_file", "stale_staging"} <= kinds
        assert report.clean  # warnings only: still trustworthy

    def test_garbage_manifest_detected(self, tmp_path):
        d = build_store(tmp_path / "s")
        (d / MANIFEST_FILENAME).write_text("{not json")
        report = fsck_store(tmp_path / "s")
        assert any(i.kind == "manifest_unreadable" for i in report.errors)

    def test_manifest_crc_mismatch_detected(self, tmp_path):
        d = build_store(tmp_path / "s")
        manifest = manifest_of(d)
        manifest["dataset"] = "renamed-by-hand"
        (d / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        report = fsck_store(tmp_path / "s")
        assert any(i.kind == "manifest_checksum" for i in report.errors)

    def test_unsupported_format_detected(self, tmp_path):
        d = build_store(tmp_path / "s")
        manifest = manifest_of(d)
        manifest["format_version"] = 99
        (d / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        report = fsck_store(tmp_path / "s")
        assert any(i.kind == "manifest_unsupported" for i in report.errors)

    def test_type_corrupt_manifest_numbers_reported_not_crashed(self, tmp_path):
        """Non-numeric values where the manifest promises counts/CRCs must
        produce a report, never a traceback — diagnosing arbitrary corrupt
        manifests is fsck's whole job."""
        d = build_store(tmp_path / "s")
        manifest = manifest_of(d)
        base = manifest["frame_partition"]
        manifest["checksums"][base][0] = "garbage"
        manifest["tree"]["reps_count"] = "NaN"
        manifest["deltas"][0]["row_keys"] = None
        (d / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        report = fsck_store(tmp_path / "s")  # must not raise
        assert not report.clean
        kinds = {i.kind for i in report.errors}
        assert "manifest_checksum" in kinds  # content no longer matches stamp
        assert any(
            i.kind == "checksum_mismatch" and "numeric" in i.detail
            for i in report.errors
        )
        # Repair over the same manifest must not crash either; the base
        # role is untrusted, so the dataset is quarantined wholesale.
        assert fsck_store(tmp_path / "s", repair=True).clean
        assert fsck_store(tmp_path / "s").clean

    def test_uncommitted_directory_detected(self, tmp_path):
        root = tmp_path / "s"
        build_store(root)
        half = root / "half-created"
        half.mkdir()
        (half / "x_g0.part").write_bytes(b"\0" * 8192)
        report = fsck_store(root)
        assert any(i.kind == "uncommitted_directory" for i in report.issues)


class TestRepair:
    def test_orphans_deleted(self, tmp_path):
        d = build_store(tmp_path / "s")
        (d / "zombie_g99.part").write_bytes(b"\0" * 8192)
        (d / "manifest.json.tmp").write_text("{}")
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.clean
        assert not (d / "zombie_g99.part").exists()
        assert not (d / "manifest.json.tmp").exists()
        assert fsck_store(tmp_path / "s").clean

    def test_corrupt_base_quarantines_dataset(self, tmp_path):
        d = build_store(tmp_path / "s")
        base = manifest_of(d)["frame_partition"]
        flip_byte(d / f"{base}.part", 100)
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.clean  # repaired: nothing untrusted remains
        assert not d.exists()
        assert (tmp_path / "s" / QUARANTINE_DIRNAME).exists()
        # A cold engine no longer sees the dataset.
        cold = HermesEngine.on_disk(tmp_path / "s")
        assert cold.datasets() == []
        cold.close()

    def test_corrupt_delta_degrades_dataset(self, tmp_path):
        d = build_store(tmp_path / "s", with_tree=False)
        delta = manifest_of(d)["deltas"][0]["partition"]
        flip_byte(d / f"{delta}.part", 50)
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.clean
        manifest = manifest_of(d)
        assert manifest["deltas"] == []
        assert manifest["degraded"]  # the loss is recorded
        # The base archive still recovers, minus the dropped batch.
        cold = HermesEngine.on_disk(tmp_path / "s")
        assert len(cold.get_mod("d")) == 3
        assert cold.artifact_status("d")["degraded"] is True
        cold.close()
        assert fsck_store(tmp_path / "s").clean

    def test_corrupt_tree_partition_resets_tree(self, tmp_path):
        d = build_store(tmp_path / "s", with_delta=False)
        tree = manifest_of(d)["tree"]
        names = [tree["reps_partition"]] + [
            sc["unclustered_partition"] for sc in tree["subchunks"]
        ] + [e["partition"] for sc in tree["subchunks"] for e in sc["entries"]]
        victim = next(
            d / f"{n}.part" for n in names if (d / f"{n}.part").stat().st_size > 64
        )
        flip_byte(victim, 64)
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.clean
        assert manifest_of(d)["tree"] is None
        # The next query rebuilds from the verified archive and re-persists.
        cold = HermesEngine.on_disk(tmp_path / "s")
        mod = cold.get_mod("d")
        cold.qut("d", Period(mod.period.tmin, mod.period.tmax))
        cold.close()
        assert manifest_of(d)["tree"] is not None
        assert fsck_store(tmp_path / "s").clean

    def test_garbage_manifest_quarantines_directory(self, tmp_path):
        d = build_store(tmp_path / "s")
        (d / MANIFEST_FILENAME).write_text("{not json")
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.clean
        assert not d.exists()
        assert any((tmp_path / "s" / QUARANTINE_DIRNAME).iterdir())

    def test_crc_mismatch_restamped_when_content_verifies(self, tmp_path):
        d = build_store(tmp_path / "s", with_tree=False, with_delta=False)
        manifest = manifest_of(d)
        (d / MANIFEST_FILENAME).write_text(json.dumps(manifest, indent=4))
        # Same content, different CRC input? No: canonical JSON ignores
        # whitespace, so re-order a harmless key to really break the stamp.
        manifest["manifest_crc"] = manifest["manifest_crc"] ^ 1
        (d / MANIFEST_FILENAME).write_text(json.dumps(manifest))
        assert not fsck_store(tmp_path / "s").clean
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.clean
        assert fsck_store(tmp_path / "s").clean  # stamp is fresh and valid

    def test_uncommitted_directory_removed(self, tmp_path):
        root = tmp_path / "s"
        build_store(root)
        half = root / "half-created"
        half.mkdir()
        (half / "x_g0.part").write_bytes(b"\0" * 8192)
        fsck_store(root, repair=True)
        assert not half.exists()


class TestTornAppendSmoke:
    """The CI smoke scenario: one torn append, detected and repaired."""

    def test_torn_append_detect_and_recover(self, tmp_path):
        d = build_store(tmp_path / "s", with_tree=False)
        manifest = manifest_of(d)
        delta = manifest["deltas"][0]["partition"]
        path = d / f"{delta}.part"
        path.write_bytes(path.read_bytes()[: 8192 // 2])  # tear the delta file
        report = fsck_store(tmp_path / "s")
        assert not report.clean
        report = fsck_store(tmp_path / "s", repair=True)
        assert report.clean
        cold = HermesEngine.on_disk(tmp_path / "s")
        assert len(cold.get_mod("d")) == 3  # base archive intact
        cold.close()


class TestEngineVerify:
    def test_engine_verify_clean(self, tmp_path):
        build_store(tmp_path / "s")
        engine = HermesEngine.on_disk(tmp_path / "s")
        report = engine.verify()
        assert report.clean
        engine.close()

    def test_in_memory_verify_trivially_clean(self):
        engine = HermesEngine.in_memory()
        assert engine.verify().clean
        assert engine.verify(repair=True).clean

    def test_verify_repair_reopens_catalog(self, tmp_path):
        d = build_store(tmp_path / "s")
        engine = HermesEngine.on_disk(tmp_path / "s")
        assert engine.datasets() == ["d"]
        base = manifest_of(d)["frame_partition"]
        flip_byte(d / f"{base}.part", 100)
        report = engine.verify(repair=True)
        assert report.clean
        assert engine.datasets() == []  # quarantined and re-catalogued

    def test_connection_verify(self, tmp_path):
        import repro

        build_store(tmp_path / "s")
        with repro.connect(tmp_path / "s") as conn:
            assert conn.verify().clean


class TestCli:
    def test_cli_clean_exit_zero(self, tmp_path, capsys):
        from repro.cli import main_fsck

        build_store(tmp_path / "s")
        assert main_fsck([str(tmp_path / "s")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_corrupt_exit_nonzero_then_repair(self, tmp_path, capsys):
        from repro.cli import main_fsck

        d = build_store(tmp_path / "s")
        base = manifest_of(d)["frame_partition"]
        flip_byte(d / f"{base}.part", 100)
        assert main_fsck([str(tmp_path / "s")]) == 1
        assert main_fsck([str(tmp_path / "s"), "--repair"]) == 0
        assert main_fsck([str(tmp_path / "s")]) == 0
        capsys.readouterr()

    def test_cli_json_output(self, tmp_path, capsys):
        from repro.cli import main_fsck

        build_store(tmp_path / "s")
        assert main_fsck([str(tmp_path / "s"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["datasets"] == ["d"]

    def test_repro_sql_exits_nonzero_on_corruption(self, tmp_path, capsys):
        from repro.cli import main_sql

        d = build_store(tmp_path / "s")
        base = manifest_of(d)["frame_partition"]
        flip_byte(d / f"{base}.part", 100)
        code = main_sql(
            ["--disk", str(tmp_path / "s"), "--dataset", "d", "SELECT SUMMARY(d)"]
        )
        assert code == 1
        assert "repro-fsck" in capsys.readouterr().err


class TestDamagedDatasetSurface:
    def test_get_mod_names_fsck_in_error(self, tmp_path):
        from repro.storage.errors import CorruptManifestError

        d = build_store(tmp_path / "s")
        (d / MANIFEST_FILENAME).write_text("{not json")
        cold = HermesEngine.on_disk(tmp_path / "s")
        assert cold.datasets() == []  # withheld, not lied about
        with pytest.raises(CorruptManifestError, match="repro-fsck"):
            cold.get_mod("d")
        cold.close()
