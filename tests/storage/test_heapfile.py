"""Unit tests for heap files (RID-addressed record storage)."""

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.heapfile import HeapFile, RID, _encode_chunk
from repro.storage.pager import FilePager, InMemoryPager


@pytest.fixture(params=["memory", "file"])
def heapfile(request, tmp_path):
    if request.param == "memory":
        pager = InMemoryPager()
    else:
        pager = FilePager(tmp_path / "heap.pages")
    return HeapFile(BufferPool(pager, capacity=8))


class TestInsertAndGet:
    def test_round_trip_small_record(self, heapfile):
        rid = heapfile.insert(b"small record")
        assert heapfile.get(rid) == b"small record"

    def test_many_records_distinct_rids(self, heapfile):
        rids = [heapfile.insert(f"rec-{i}".encode()) for i in range(200)]
        assert len(set(rids)) == 200
        for i, rid in enumerate(rids):
            assert heapfile.get(rid) == f"rec-{i}".encode()

    def test_record_spanning_multiple_pages(self, heapfile):
        big = bytes(range(256)) * 150  # ~38 KiB, needs ~5 pages
        rid = heapfile.insert(big)
        assert heapfile.get(rid) == big
        assert heapfile.num_pages() >= 5

    def test_empty_record(self, heapfile):
        rid = heapfile.insert(b"")
        assert heapfile.get(rid) == b""

    def test_records_fill_multiple_pages(self, heapfile):
        payload = b"p" * 1000
        for _ in range(30):
            heapfile.insert(payload)
        assert heapfile.num_pages() > 1


class TestDelete:
    def test_deleted_record_not_scanned(self, heapfile):
        keep = heapfile.insert(b"keep")
        victim = heapfile.insert(b"remove")
        heapfile.delete(victim)
        contents = [rec for _rid, rec in heapfile.scan_records()]
        assert b"keep" in contents
        assert b"remove" not in contents
        assert heapfile.get(keep) == b"keep"

    def test_delete_multi_page_record_removes_all_chunks(self, heapfile):
        big = b"B" * 30000
        rid = heapfile.insert(big)
        heapfile.delete(rid)
        assert [rec for _r, rec in heapfile.scan_records()] == []


class TestScan:
    def test_scan_records_returns_complete_records(self, heapfile):
        small = heapfile.insert(b"small")
        big_payload = b"X" * 20000
        big = heapfile.insert(big_payload)
        records = dict(heapfile.scan_records())
        assert records[small] == b"small"
        assert records[big] == big_payload
        assert len(records) == 2

    def test_scan_empty_file(self, heapfile):
        assert list(heapfile.scan_records()) == []


class TestDurability:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "durable.heap"
        pool = BufferPool(FilePager(path), capacity=4)
        heap = HeapFile(pool)
        rid = heap.insert(b"persist me")
        pool.close()

        reopened = HeapFile(BufferPool(FilePager(path), capacity=4))
        assert reopened.get(rid) == b"persist me"

    def test_rid_ordering(self):
        assert RID(0, 1) < RID(0, 2) < RID(1, 0)


def scanned_count(heapfile):
    return sum(1 for _ in heapfile.scan_records())


def overwrite_chunk_header(heapfile, rid, header: bytes):
    """Rewrite the leading bytes of the chunk at ``rid`` in its (pooled) page."""
    page = heapfile.buffer_pool.get_page(rid.page_no)
    offset, _length = page._read_slot(rid.slot)
    page.data[offset : offset + len(header)] = header


def chunk_header(next_rid: "RID | None") -> bytes:
    return _encode_chunk(b"", next_rid)


class TestCountRecords:
    """``count_records`` is ``scan_records`` minus the payloads: same count,
    same refusals, read from slot directories and chunk headers only."""

    def test_empty_file(self, heapfile):
        assert heapfile.count_records() == scanned_count(heapfile) == 0

    def test_single_and_multi_page_records_and_deleted_slots(self, heapfile):
        rids = [heapfile.insert(f"rec-{i}".encode() * (i + 1)) for i in range(40)]
        rids.append(heapfile.insert(b"X" * 20000))  # continuation chain over 3 pages
        rids.append(heapfile.insert(b""))
        rids.append(heapfile.insert(b"Y" * 9000))
        assert heapfile.count_records() == scanned_count(heapfile) == 43
        heapfile.delete(rids[3])
        heapfile.delete(rids[40])  # every chunk of the 20 kB record
        assert heapfile.count_records() == scanned_count(heapfile) == 41

    def test_one_page_access_per_page_and_no_payload_copy(self, heapfile, monkeypatch):
        from repro.storage.page import Page

        for _ in range(30):
            heapfile.insert(b"p" * 1000)
        heapfile.insert(b"Z" * 20000)
        stats = heapfile.buffer_pool.stats
        before = stats.logical_reads
        monkeypatch.setattr(Page, "records", None)  # the payload-copying accessor
        assert heapfile.count_records() == 31
        assert stats.logical_reads - before == heapfile.num_pages()

    def test_matches_scan_on_random_contents(self):
        import random

        rng = random.Random(7)
        heap = HeapFile(BufferPool(InMemoryPager(), capacity=64))
        live = []
        for _ in range(200):
            if live and rng.random() < 0.25:
                heap.delete(live.pop(rng.randrange(len(live))))
            else:
                live.append(heap.insert(bytes(rng.randrange(0, 12000))))
            assert heap.count_records() == scanned_count(heap) == len(live)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("bad_flag", "continuation flag 7"),
            ("short_chunk", "shorter than"),
            ("broken_chain", "broken continuation chain"),
            ("cyclic_chain", "cyclic continuation chain"),
            ("slot_out_of_bounds", "outside the valid data area"),
        ],
    )
    def test_raises_on_what_scan_records_raises_on(self, heapfile, damage, message):
        first = heapfile.insert(b"first")
        second = heapfile.insert(b"second")
        page = heapfile.buffer_pool.get_page(first.page_no)
        if damage == "bad_flag":
            overwrite_chunk_header(heapfile, first, bytes([7]))
        elif damage == "short_chunk":
            offset, _length = page._read_slot(first.slot)
            page._write_slot(first.slot, offset, 4)
        elif damage == "broken_chain":
            overwrite_chunk_header(heapfile, first, chunk_header(RID(5, 5)))
        elif damage == "cyclic_chain":
            # head -> first -> second -> first: a cycle hanging off a head.
            head = heapfile.insert(b"head")
            overwrite_chunk_header(heapfile, head, chunk_header(first))
            overwrite_chunk_header(heapfile, first, chunk_header(second))
            overwrite_chunk_header(heapfile, second, chunk_header(first))
        else:
            page._write_slot(first.slot, 2, 50)  # inside the slot directory
        with pytest.raises(ValueError, match=message):
            list(heapfile.scan_records())
        with pytest.raises(ValueError, match=message):
            heapfile.count_records()
