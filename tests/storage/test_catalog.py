"""Unit tests for the partition catalog / storage manager."""

import pytest

from repro.storage.catalog import StorageManager


@pytest.fixture(params=["memory", "disk"])
def manager(request, tmp_path):
    if request.param == "memory":
        return StorageManager()
    return StorageManager(tmp_path / "partitions")


class TestPartitionLifecycle:
    def test_create_and_get(self, manager):
        info = manager.create_partition("cluster_0")
        assert manager.get("cluster_0") is info
        assert manager.has("cluster_0")
        assert not manager.has("cluster_1")

    def test_duplicate_create_rejected(self, manager):
        manager.create_partition("p")
        with pytest.raises(ValueError):
            manager.create_partition("p")

    def test_get_or_create_idempotent(self, manager):
        a = manager.get_or_create("p")
        b = manager.get_or_create("p")
        assert a is b
        assert len(manager.partitions()) == 1

    def test_drop_removes_partition(self, manager):
        manager.create_partition("gone")
        manager.drop_partition("gone")
        assert not manager.has("gone")
        with pytest.raises(KeyError):
            manager.get("gone")

    def test_drop_deletes_file_on_disk(self, tmp_path):
        manager = StorageManager(tmp_path / "parts")
        info = manager.create_partition("on_disk")
        info.heapfile.insert(b"data")
        info.heapfile.buffer_pool.flush_all()
        assert info.path is not None and info.path.exists()
        manager.drop_partition("on_disk")
        assert not info.path.exists()

    def test_unknown_partition_raises(self, manager):
        with pytest.raises(KeyError):
            manager.get("missing")


class TestPartitionUsage:
    def test_partitions_are_usable_heapfiles(self, manager):
        info = manager.create_partition("data")
        rid = info.heapfile.insert(b"record")
        assert info.heapfile.get(rid) == b"record"

    def test_io_stats_aggregate(self, manager):
        info = manager.create_partition("io")
        rid = info.heapfile.insert(b"payload")
        info.heapfile.get(rid)
        stats = manager.io_stats()
        assert stats["hits"] + stats["misses"] > 0

    def test_io_stats_sum_over_partitions(self, manager):
        infos = [manager.create_partition(name) for name in ("a", "b")]
        for info in infos:
            info.heapfile.get(info.heapfile.insert(b"x" * 100))
        stats = manager.io_stats()
        pools = [info.heapfile.buffer_pool.stats for info in infos]
        assert stats["hits"] == sum(p.hits for p in pools)
        assert stats["misses"] == sum(p.misses for p in pools)
        assert stats["hits"] + stats["misses"] >= len(infos)

    def test_close_flushes_disk_partitions(self, tmp_path):
        manager = StorageManager(tmp_path / "flush")
        info = manager.create_partition("p")
        rid = info.heapfile.insert(b"flushed")
        manager.close()

        reopened = StorageManager(tmp_path / "flush")
        restored = reopened.create_partition("p")
        assert restored.heapfile.get(rid) == b"flushed"

    def test_checkpoint_makes_records_visible_to_second_handle(self, tmp_path):
        """Checkpoint flushes without closing: a concurrently opened manager
        over the same directory reads complete heapfiles."""
        manager = StorageManager(tmp_path / "ckpt")
        info = manager.create_partition("p")
        rid = info.heapfile.insert(b"durable")
        manager.checkpoint()

        other = StorageManager(tmp_path / "ckpt")
        assert other.get_or_create("p").heapfile.get(rid) == b"durable"
        # The original handle keeps working after the checkpoint.
        rid2 = info.heapfile.insert(b"more")
        assert info.heapfile.get(rid2) == b"more"


class TestManifest:
    def test_roundtrip(self, manager):
        assert manager.read_manifest() is None
        manifest = {"format_version": 1, "dataset": "d", "tree": None}
        manager.write_manifest(manifest)
        assert manager.read_manifest() == manifest

    def test_on_disk_manifest_survives_reopen(self, tmp_path):
        manager = StorageManager(tmp_path / "m")
        manager.write_manifest({"dataset": "d", "row_keys": [["a", "0"]]})
        reopened = StorageManager(tmp_path / "m")
        assert reopened.read_manifest() == {"dataset": "d", "row_keys": [["a", "0"]]}

    def test_overwrite_replaces(self, manager):
        manager.write_manifest({"v": 1})
        manager.write_manifest({"v": 2})
        assert manager.read_manifest() == {"v": 2}


class TestDestroy:
    def test_destroy_reclaims_directory(self, tmp_path):
        directory = tmp_path / "gone"
        manager = StorageManager(directory)
        info = manager.create_partition("p")
        info.heapfile.insert(b"bytes")
        manager.write_manifest({"dataset": "p"})
        manager.checkpoint()
        manager.destroy()
        assert not directory.exists()
        assert manager.partitions() == []

    def test_destroy_removes_unopened_stale_files(self, tmp_path):
        """Files left behind by an earlier process are reclaimed even though
        this manager never opened them."""
        directory = tmp_path / "stale"
        first = StorageManager(directory)
        first.create_partition("old").heapfile.insert(b"x")
        first.close()

        second = StorageManager(directory)  # opens nothing
        second.destroy()
        assert not directory.exists()

    def test_destroy_in_memory_is_a_noop_reset(self):
        manager = StorageManager()
        manager.create_partition("p")
        manager.write_manifest({"x": 1})
        manager.destroy()
        assert manager.partitions() == []
        assert manager.read_manifest() is None
