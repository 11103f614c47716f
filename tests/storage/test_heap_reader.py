"""The heap reader equals the per-slot walk it replaced, damage included.

``HeapFile.scan_records`` / ``count_records`` read each page once, its slot
directory as one array (``Page.live_slots``), and skip the successor map
entirely when no chunk is a continuation.  ``tests/storage/oracles.py``
keeps the per-slot walk; over generated insert/delete sequences — chained
records over a page, files mixing chained and unchained records, random
slot-entry and chunk-header damage — both must yield the same records in
the same order, or raise a ``ValueError`` with the same text, and every
page is fetched exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.trajectory import Trajectory
from repro.storage.buffer_pool import BufferPool
from repro.storage.heapfile import RID, HeapFile, _encode_chunk
from repro.storage.page import PAGE_SIZE, Page
from repro.storage.pager import InMemoryPager
from repro.storage.records import decode_records, encode_record
from tests.storage.oracles import count_records_per_slot, scan_records_per_slot

# Small records, page-sized ones, and records chained over two or three pages.
SIZES = st.one_of(st.integers(0, 300), st.integers(900, 4000), st.integers(8100, 20000))
OPS = st.lists(
    st.one_of(
        SIZES.map(lambda size: ("insert", size)),
        st.integers(0, 10**6).map(lambda k: ("delete", k)),
    ),
    max_size=30,
)


def payload(i: int, size: int) -> bytes:
    return bytes((i * 31 + k) % 251 for k in range(size))


def build_heap(ops, capacity: int = 64) -> tuple[HeapFile, list[RID]]:
    heap = HeapFile(BufferPool(InMemoryPager(), capacity=capacity))
    live: list[RID] = []
    for i, (op, arg) in enumerate(ops):
        if op == "insert":
            live.append(heap.insert(payload(i, arg)))
        elif live:
            heap.delete(live.pop(arg % len(live)))
    return heap, live


def live_chunks(heap: HeapFile) -> list[RID]:
    pool = heap.buffer_pool
    return [RID(p, slot) for p in range(heap.num_pages()) for slot, _ in pool.get_page(p).records()]


def outcome(read):
    """What a read returns, or the text of the ``ValueError`` it raises."""
    try:
        return read()
    except ValueError as exc:
        return ("ValueError", str(exc))


def page_reads(heap: HeapFile, read) -> int:
    stats = heap.buffer_pool.stats
    before = stats.logical_reads
    read()
    return stats.logical_reads - before


class TestEqualsThePerSlotOracle:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS, capacity=st.sampled_from([2, 64]))
    def test_same_records_in_the_same_order(self, ops, capacity):
        heap, live = build_heap(ops, capacity)
        expected = list(scan_records_per_slot(heap))
        assert list(heap.scan_records()) == expected
        assert heap.count_records() == count_records_per_slot(heap) == len(expected)
        assert sorted(rid for rid, _raw in expected) == sorted(live)

    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_every_page_is_fetched_exactly_once(self, ops):
        heap, _live = build_heap(ops)
        pages = heap.num_pages()
        assert page_reads(heap, lambda: list(heap.scan_records())) == pages
        assert page_reads(heap, heap.count_records) == pages

    def test_trajectory_records_chained_over_a_page(self):
        """Past ~340 samples an encoded trajectory spans pages; mixed with short ones."""
        heap = HeapFile(BufferPool(InMemoryPager(), capacity=8))
        trajs = []
        for i, n in enumerate([50, 338, 339, 340, 341, 800, 3, 2000]):
            t = np.arange(n, dtype=float)
            traj = Trajectory(f"o{i}", "0", np.sin(t), np.cos(t), t)
            heap.insert(encode_record(traj))
            trajs.append(traj)
        assert heap.num_pages() > len(trajs) // 2
        scanned = list(heap.scan_records())
        assert scanned == list(scan_records_per_slot(heap))
        assert any(len(raw) > PAGE_SIZE for _rid, raw in scanned)
        decoded = decode_records([raw for _rid, raw in scanned]).trajectories()
        by_key = {traj.key: traj for traj in decoded}
        for traj in trajs:
            assert by_key[traj.key].ts.tobytes() == traj.ts.tobytes()
            assert by_key[traj.key].xs.tobytes() == traj.xs.tobytes()
        assert page_reads(heap, lambda: list(heap.scan_records())) == heap.num_pages()


class TestDamage:
    """Every damage raises what the per-slot walk raises, message for message."""

    @staticmethod
    def damage(heap: HeapFile, rid: RID, kind: str, value: int) -> None:
        pool = heap.buffer_pool
        page = pool.get_page(rid.page_no)
        offset, length = page._read_slot(rid.slot)
        if kind == "slot_entry":  # any offset / length, in bounds or not
            page._write_slot(rid.slot, value % 65536, (value * 7919) % 65536)
        elif kind == "short_chunk":
            page._write_slot(rid.slot, offset, value % 9)
        elif offset + 9 > PAGE_SIZE:
            return  # an earlier damage left no header to rewrite here
        elif kind == "bad_flag":
            page.data[offset] = 2 + value % 254
        elif kind == "broken_chain":
            page.data[offset : offset + 9] = _encode_chunk(b"", RID(value % 7 + 50, value % 5))
        else:  # "relink": point the chunk at any live chunk, itself or a cycle included
            chunks = live_chunks(heap)
            page.data[offset : offset + 9] = _encode_chunk(b"", chunks[value % len(chunks)])
        pool.mark_dirty(rid.page_no)

    @settings(max_examples=120, deadline=None)
    @given(
        ops=OPS.filter(lambda ops: any(op == "insert" for op, _ in ops)),
        damages=st.lists(
            st.tuples(
                st.sampled_from(["slot_entry", "short_chunk", "bad_flag", "broken_chain", "relink"]),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_scan_and_count_fail_alike(self, ops, damages):
        heap, _live = build_heap(ops)
        for kind, where, value in damages:
            try:
                chunks = live_chunks(heap)
            except ValueError:
                break  # an earlier damage already corrupts a slot directory
            if not chunks:
                break
            self.damage(heap, chunks[where % len(chunks)], kind, value)
        expected = outcome(lambda: list(scan_records_per_slot(heap)))
        assert outcome(lambda: list(heap.scan_records())) == expected
        assert outcome(heap.count_records) == outcome(lambda: count_records_per_slot(heap))

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("slot_entry", "outside the valid data area"),
            ("short_chunk", "shorter than the 9-byte chunk header"),
            ("bad_flag", "continuation flag"),
            ("broken_chain", "broken continuation chain"),
        ],
    )
    def test_each_kind_is_refused_with_the_oracle_text(self, kind, message):
        heap, live = build_heap([("insert", 40), ("insert", 12000), ("insert", 70)])
        self.damage(heap, live[0], kind, 3)
        expected = outcome(lambda: list(scan_records_per_slot(heap)))
        assert expected[0] == "ValueError" and message in expected[1]
        assert outcome(lambda: list(heap.scan_records())) == expected
        assert outcome(heap.count_records) == expected

    def test_a_cyclic_chain_is_refused_with_the_oracle_text(self):
        heap, (first, second, head) = build_heap([("insert", 5), ("insert", 6), ("insert", 4)])
        pool = heap.buffer_pool
        for rid, target in [(head, first), (first, second), (second, first)]:
            page = pool.get_page(rid.page_no)
            offset, _length = page._read_slot(rid.slot)
            page.data[offset : offset + 9] = _encode_chunk(b"", target)
        expected = outcome(lambda: list(scan_records_per_slot(heap)))
        assert expected[0] == "ValueError" and "cyclic continuation chain" in expected[1]
        assert outcome(lambda: list(heap.scan_records())) == expected
        assert outcome(heap.count_records) == expected


class TestSlotDirectory:
    def test_live_slots_skip_deleted_slots(self):
        page = Page()
        for i in range(5):
            page.insert(bytes([i]) * (i + 1))
        page.delete(1)
        page.delete(4)
        slots, offsets, lengths = page.live_slots()
        assert slots.tolist() == [0, 2, 3]
        assert lengths.tolist() == [1, 3, 4]
        assert [bytes(page.data[o : o + n]) for o, n in zip(offsets, lengths)] == [
            b"\x00",
            b"\x02" * 3,
            b"\x03" * 4,
        ]

    def test_first_bad_slot_is_named(self):
        page = Page()
        for _ in range(4):
            page.insert(b"abc")
        page._write_slot(3, 2, 10)  # inside the directory
        page._write_slot(1, PAGE_SIZE - 2, 10)  # past the page end
        with pytest.raises(ValueError, match=r"^slot 1 is corrupt: record \[8190, 8200\)"):
            page.live_slots()

    def test_a_directory_overrunning_the_page_is_corrupt(self):
        page = Page()
        page._write_header(5000, PAGE_SIZE)  # 5000 slots cannot fit, none live
        with pytest.raises(ValueError, match="slot directory is corrupt"):
            page.live_slots()
        page.data[40:44] = (100).to_bytes(2, "little") + (4).to_bytes(2, "little")
        with pytest.raises(ValueError, match="slot 9 is corrupt"):
            page.records()
