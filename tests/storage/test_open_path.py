"""The verified open of a partition the manifest recorded page CRCs for.

Each kind of damage is refused with one ``CorruptPartitionError`` text,
offset and generation (the texts below were recorded from the catalog
before the open became a single read); a failing open registers nothing
and keeps no file handle, a retry refuses again, and a clean open reads
the file once and leaves its pages in the buffer pool.
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.storage.catalog import StorageManager
from repro.storage.errors import REMEDIATION, CorruptPartitionError
from repro.storage.faults import IOShim
from repro.storage.heapfile import count_records, read_records
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import FilePager

NAME = "d__reps_g3"
RECORDS = [bytes([k]) * 900 for k in range(40)]


class CountingIO(IOShim):
    """The pass-through shim, counting its read calls."""

    def __init__(self) -> None:
        self.reads = 0

    def read(self, fh, n: int = -1) -> bytes:
        self.reads += 1
        return super().read(fh, n)

    def read_bytes(self, path) -> bytes:
        self.reads += 1
        return super().read_bytes(path)


@pytest.fixture
def store(tmp_path):
    """A closed directory holding one five-page partition and its page CRCs."""
    manager = StorageManager(tmp_path / "parts")
    info = manager.create_partition(NAME)
    for record in RECORDS:
        info.heapfile.insert(record)
    manager.checkpoint()
    sums = manager.partition_checksums([NAME])
    manager.close()
    assert len(sums[NAME]) == 5
    return tmp_path / "parts", sums


def reopen(directory, sums, io=None) -> StorageManager:
    manager = StorageManager(directory, io=io)
    manager.set_expected_checksums(sums)
    return manager


def expected_error(path, message: str, offset: int) -> str:
    return f"{message} [file={path}, offset={offset}, generation=3]; {REMEDIATION}"


def open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


def refuses(manager: StorageManager, text: str, offset: int) -> None:
    """The open raises ``text`` twice, registering nothing and leaking no handle."""
    before = open_fds()
    for _ in range(2):
        with pytest.raises(CorruptPartitionError) as caught:
            manager.get_or_create(NAME)
        assert str(caught.value) == text
        assert caught.value.offset == offset
        assert caught.value.generation == 3
        assert not manager.has(NAME)
        assert manager.partitions() == []
    assert open_fds() <= before


class TestDamageIsRefusedWithTheSameText:
    def test_torn_tail(self, store):
        directory, sums = store
        path = directory / f"{NAME}.part"
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 17)
        size = 5 * PAGE_SIZE + 17
        text = expected_error(
            path,
            f"partition {NAME!r} has size {size}, not a multiple of the page size "
            "— the file tail is torn",
            5 * PAGE_SIZE,
        )
        refuses(reopen(directory, sums), text, 5 * PAGE_SIZE)

    @pytest.mark.parametrize("pages", [3, 7])
    def test_page_count_mismatch(self, store, pages):
        directory, sums = store
        path = directory / f"{NAME}.part"
        data = path.read_bytes()
        path.write_bytes((data + data)[: pages * PAGE_SIZE])
        offset = min(pages, 5) * PAGE_SIZE
        text = expected_error(
            path, f"partition {NAME!r} holds {pages} pages but the manifest recorded 5", offset
        )
        refuses(reopen(directory, sums), text, offset)

    @pytest.mark.parametrize("page_no", [0, 2, 4])
    def test_flipped_byte_in_page_k(self, store, page_no):
        directory, sums = store
        path = directory / f"{NAME}.part"
        data = bytearray(path.read_bytes())
        data[page_no * PAGE_SIZE + 1000] ^= 0x10
        path.write_bytes(bytes(data))
        got = zlib.crc32(bytes(data[page_no * PAGE_SIZE : (page_no + 1) * PAGE_SIZE]))
        want = sums[NAME][page_no]
        offset = page_no * PAGE_SIZE
        text = expected_error(
            path,
            f"partition {NAME!r} page {page_no} fails its CRC32 check "
            f"(stored {want}, computed {got})",
            offset,
        )
        refuses(reopen(directory, sums), text, offset)

    def test_a_failed_open_stays_refused_after_the_file_is_fixed_elsewhere(self, store):
        """The expectation is consumed only by a successful verification."""
        directory, sums = store
        path = directory / f"{NAME}.part"
        original = path.read_bytes()
        data = bytearray(original)
        data[10] ^= 1
        path.write_bytes(bytes(data))
        manager = reopen(directory, sums)
        with pytest.raises(CorruptPartitionError):
            manager.get_or_create(NAME)
        path.write_bytes(original)
        info = manager.get_or_create(NAME)
        assert count_records([info.heapfile]) == [len(RECORDS)]
        manager.close()


class TestCleanOpen:
    def test_absent_file_is_created_only_when_nothing_is_recorded(self, store):
        """A file the manifest records is refused as missing, and not created;
        a partition with nothing recorded (one being staged) opens empty."""
        directory, sums = store
        path = directory / f"{NAME}.part"
        path.unlink()
        text = (
            f"partition {NAME!r} is referenced by the manifest but its file is missing "
            f"[file={path}, generation=3]; {REMEDIATION}"
        )
        refuses(reopen(directory, sums), text, None)
        assert sorted(os.listdir(directory)) == []
        manager = reopen(directory, {})
        info = manager.get_or_create(NAME)
        assert info.heapfile.num_pages() == 0
        assert count_records([info.heapfile]) == [0]
        assert sorted(os.listdir(directory)) == [f"{NAME}.part"]
        manager.close()

    def test_the_file_is_read_once(self, store):
        directory, sums = store
        io = CountingIO()
        manager = reopen(directory, sums, io=io)
        manager.get_or_create(NAME)
        assert io.reads == 1
        manager.close()

    def test_records_are_counted_and_read_from_the_pool(self, store, monkeypatch):
        directory, sums = store
        manager = reopen(directory, sums)
        info = manager.get_or_create(NAME)
        calls = []
        original = FilePager.read_page
        monkeypatch.setattr(
            FilePager, "read_page", lambda self, no: calls.append(no) or original(self, no)
        )
        assert count_records([info.heapfile]) == [len(RECORDS)]
        records = read_records([info.heapfile])
        assert calls == []
        assert [
            records.image[s : s + n] for s, n in zip(records.starts, records.lengths)
        ] == RECORDS
        manager.close()

    def test_each_page_read_from_disk_counts_once(self, store):
        directory, sums = store
        manager = reopen(directory, sums)
        info = manager.get_or_create(NAME)
        count_records([info.heapfile])
        read_records([info.heapfile])
        assert manager.io_stats()["pages_read"] == 5
        manager.close()

    def test_a_partition_larger_than_the_pool_reads_past_it(self, store):
        directory, sums = store
        manager = StorageManager(directory, buffer_pool_pages=2)
        manager.set_expected_checksums(sums)
        info = manager.get_or_create(NAME)
        assert count_records([info.heapfile]) == [len(RECORDS)]
        assert info.heapfile.get(info.heapfile.insert(b"late")) == b"late"
        manager.close()
