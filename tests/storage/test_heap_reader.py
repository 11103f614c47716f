"""The heap reader equals the per-slot walk it replaced, damage included.

``read_records`` takes a run of heap files — a QuT sub-chunk's partitions —
joins their pooled pages once and reads every slot directory and chunk flag
as arrays (``slot_directories``); ``count_records`` reads the same
headers and counts.  ``tests/storage/oracles.py`` keeps the per-slot walk;
over generated sub-chunks of 1–6 files — empty files, dead slots (zeroed
slot entries), records chained over pages, random slot-entry and
chunk-header damage in any file — the reader must yield each file's records
in the same order, or raise a ``ValueError`` with the text the walk gives for
the first damage in sub-chunk order, and every page is fetched exactly once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.trajectory import Trajectory
from repro.storage.buffer_pool import BufferPool
from repro.storage.heapfile import _MAX_CHUNK, RID, HeapFile, _encode_chunk, count_records, read_records
from repro.storage.page import PAGE_SIZE, Page, slot_directories
from repro.storage.pager import InMemoryPager
from repro.storage.records import decode_records, encode_record
from tests.conftest import stored_records
from tests.storage.oracles import (
    count_records_per_slot,
    delete_record,
    kill_slot,
    page_records_per_slot,
    read_records_per_slot,
    scan_records_per_slot,
)

# Small records, page-sized ones, and records chained over two or three pages.
SIZES = st.one_of(st.integers(0, 300), st.integers(900, 4000), st.integers(_MAX_CHUNK, 20000))
OPS = st.lists(
    st.one_of(
        SIZES.map(lambda size: ("insert", size)),
        st.integers(0, 10**6).map(lambda k: ("delete", k)),
    ),
    max_size=30,
)
# A sub-chunk: one to six files, any of them empty.
SUBCHUNK = st.lists(st.one_of(st.just([]), OPS), min_size=1, max_size=6)


def payload(i: int, size: int) -> bytes:
    return bytes((i * 31 + k) % 251 for k in range(size))


def build_heap(ops, capacity: int = 64, salt: int = 0) -> tuple[HeapFile, list[RID]]:
    heap = HeapFile(BufferPool(InMemoryPager(), capacity=capacity))
    live: list[RID] = []
    for i, (op, arg) in enumerate(ops):
        if op == "insert":
            live.append(heap.insert(payload(i + salt, arg)))
        elif live:
            delete_record(heap, live.pop(arg % len(live)))
    return heap, live


def build_subchunk(files, capacity: int = 64) -> list[HeapFile]:
    return [build_heap(ops, capacity, salt=100 * k)[0] for k, ops in enumerate(files)]


def live_chunks(heap: HeapFile) -> list[RID]:
    pool = heap.buffer_pool
    return [
        RID(p, slot) for p in range(heap.num_pages()) for slot, _ in page_records_per_slot(pool.get_page(p))
    ]


def outcome(read):
    """What a read returns, or the text of the ``ValueError`` it raises."""
    try:
        return read()
    except ValueError as exc:
        return ("ValueError", str(exc))


def page_reads(heaps: list[HeapFile], read) -> int:
    before = sum(heap.buffer_pool.stats.logical_reads for heap in heaps)
    read()
    return sum(heap.buffer_pool.stats.logical_reads for heap in heaps) - before


def read_with_bounds(heaps: list[HeapFile]) -> tuple[list[bytes], list[int]]:
    return stored_records(*heaps), read_records(heaps).bounds.tolist()


class TestEqualsThePerSlotOracle:
    @settings(max_examples=60, deadline=None)
    @given(files=SUBCHUNK, capacity=st.sampled_from([2, 64]))
    def test_same_records_in_the_same_order(self, files, capacity):
        heaps = build_subchunk(files, capacity)
        expected, bounds = read_records_per_slot(heaps)
        assert read_with_bounds(heaps) == (expected, bounds)
        assert count_records(heaps) == [bounds[k + 1] - bounds[k] for k in range(len(heaps))]
        for k, heap in enumerate(heaps):
            assert count_records_per_slot(heap) == bounds[k + 1] - bounds[k]
            assert bounds[k + 1] - bounds[k] == len(build_heap(files[k])[1])

    @settings(max_examples=40, deadline=None)
    @given(files=SUBCHUNK)
    def test_every_page_is_fetched_exactly_once(self, files):
        heaps = build_subchunk(files)
        pages = sum(heap.num_pages() for heap in heaps)
        assert page_reads(heaps, lambda: read_records(heaps)) == pages
        assert page_reads(heaps, lambda: count_records(heaps)) == pages

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
        scanned = stored_records(heap)
        assert scanned == [raw for _rid, raw in scan_records_per_slot(heap)]
        assert any(len(raw) > PAGE_SIZE for raw in scanned)
        decoded = decode_records(scanned).trajectories()
        by_key = {traj.key: traj for traj in decoded}
        for traj in trajs:
            assert by_key[traj.key].ts.tobytes() == traj.ts.tobytes()
            assert by_key[traj.key].xs.tobytes() == traj.xs.tobytes()
        assert page_reads([heap], lambda: read_records([heap])) == heap.num_pages()


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
        files=SUBCHUNK.filter(lambda files: any(op == "insert" for ops in files for op, _ in ops)),
        damages=st.lists(
            st.tuples(
                st.sampled_from(["slot_entry", "short_chunk", "bad_flag", "broken_chain", "relink"]),
                st.integers(0, 5),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_scan_and_count_fail_alike(self, files, damages):
        heaps = build_subchunk(files)
        for kind, which, where, value in damages:
            heap = heaps[which % len(heaps)]
            try:
                chunks = live_chunks(heap)
            except ValueError:
                continue  # an earlier damage already corrupts a slot directory here
            if chunks:
                self.damage(heap, chunks[where % len(chunks)], kind, value)
        assert outcome(lambda: read_with_bounds(heaps)) == outcome(
            lambda: read_records_per_slot(heaps)
        )
        assert outcome(lambda: count_records(heaps)) == outcome(
            lambda: [count_records_per_slot(heap) for heap in heaps]
        )

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("slot_entry", "outside the valid data area"),
            ("short_chunk", "shorter than the 9-byte chunk header"),
            ("bad_flag", "continuation flag"),
            ("broken_chain", "broken continuation chain"),
        ],
    )
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_each_kind_is_refused_with_the_oracle_text(self, kind, message, k):
        ops = [("insert", 40), ("insert", 12000), ("insert", 70)]
        heaps = [build_heap(ops)[0], build_heap([])[0], build_heap(ops)[0], build_heap(ops[:1])[0]]
        damaged = [heap for heap in heaps if heap.num_pages()][k]
        self.damage(damaged, live_chunks(damaged)[0], kind, 3)
        expected = outcome(lambda: read_records_per_slot(heaps))
        assert expected[0] == "ValueError" and message in expected[1]
        assert outcome(lambda: read_with_bounds(heaps)) == expected
        assert outcome(lambda: count_records(heaps)) == expected

    def test_a_chain_in_an_earlier_file_is_reported_before_a_later_files_page(self):
        first, second = build_heap([("insert", 9000)])[0], build_heap([("insert", 5)])[0]
        head = live_chunks(first)
        page = first.buffer_pool.get_page(head[0].page_no)
        offset, _length = page._read_slot(head[0].slot)
        page.data[offset : offset + 9] = _encode_chunk(b"", RID(9, 9))
        self.damage(second, live_chunks(second)[0], "slot_entry", 3)
        expected = outcome(lambda: read_records_per_slot([first, second]))
        assert "broken continuation chain" in expected[1]
        assert outcome(lambda: read_with_bounds([first, second])) == expected
        assert "outside the valid data area" in outcome(lambda: read_with_bounds([second, first]))[1]

    def test_a_cyclic_chain_is_refused_with_the_oracle_text(self):
        heap, (first, second, head) = build_heap([("insert", 5), ("insert", 6), ("insert", 4)])
        pool = heap.buffer_pool
        for rid, target in [(head, first), (first, second), (second, first)]:
            page = pool.get_page(rid.page_no)
            offset, _length = page._read_slot(rid.slot)
            page.data[offset : offset + 9] = _encode_chunk(b"", target)
        expected = outcome(lambda: list(scan_records_per_slot(heap)))
        assert expected[0] == "ValueError" and "cyclic continuation chain" in expected[1]
        assert outcome(lambda: stored_records(heap)) == expected
        assert outcome(lambda: count_records([heap])) == expected


def pages_image(*pages: Page) -> bytes:
    return b"".join(page.to_bytes() for page in pages)


class TestSlotDirectory:
    def test_live_slots_skip_deleted_slots(self):
        page = Page()
        for i in range(5):
            page.insert(bytes([i]) * (i + 1))
        kill_slot(page, 1)
        kill_slot(page, 4)
        pages, slots, offsets, lengths, damage = slot_directories(pages_image(Page(), page))
        assert damage is None
        assert pages.tolist() == [1, 1, 1]
        assert slots.tolist() == [0, 2, 3]
        assert lengths.tolist() == [1, 3, 4]
        assert [bytes(page.data[o : o + n]) for o, n in zip(offsets, lengths)] == [
            b"\x00",
            b"\x02" * 3,
            b"\x03" * 4,
        ]

    def test_first_bad_slot_of_the_first_bad_page_is_named(self):
        sound, page = Page(), Page()
        for _ in range(4):
            page.insert(b"abc")
            sound.insert(b"abc")
        page._write_slot(3, 2, 10)  # inside the directory
        page._write_slot(1, PAGE_SIZE - 2, 10)  # past the page end
        later = Page(page.to_bytes())
        later._write_slot(0, 1, 1)
        damage = slot_directories(pages_image(sound, page, later))[4]
        assert damage[0] == 1
        assert str(damage[1]).startswith("slot 1 is corrupt: record [8190, 8200)")
        with pytest.raises(ValueError, match=r"^slot 1 is corrupt: record \[8190, 8200\)"):
            page.read(1)

    def test_a_directory_overrunning_the_page_is_corrupt(self):
        page = Page()
        page._write_header(5000, PAGE_SIZE)  # 5000 slots cannot fit, none live
        assert "slot directory is corrupt" in str(slot_directories(pages_image(page))[4][1])
        page.data[40:44] = (100).to_bytes(2, "little") + (4).to_bytes(2, "little")
        assert "slot 9 is corrupt" in str(slot_directories(pages_image(page))[4][1])

    def test_no_pages(self):
        pages, slots, offsets, lengths, damage = slot_directories(b"")
        assert pages.size == slots.size == offsets.size == lengths.size == 0
        assert damage is None
