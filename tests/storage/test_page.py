"""Unit tests for slotted pages."""

import pytest

from repro.storage.page import PAGE_SIZE, Page, PageFullError, slot_directories
from tests.storage.oracles import kill_slot


class TestPageBasics:
    def test_new_page_is_empty(self):
        page = Page()
        assert page.num_slots == 0
        assert page.free_space > 0
        assert slot_directories(page.to_bytes())[1].tolist() == []

    def test_insert_and_read(self):
        page = Page()
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"
        assert page.num_slots == 1

    def test_multiple_records_keep_distinct_slots(self):
        page = Page()
        slots = [page.insert(f"record-{i}".encode()) for i in range(10)]
        assert slots == list(range(10))
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"record-{i}".encode()

    def test_free_space_decreases_on_insert(self):
        page = Page()
        before = page.free_space
        page.insert(b"x" * 100)
        assert page.free_space < before

    def test_read_invalid_slot_raises(self):
        page = Page()
        with pytest.raises(KeyError):
            page.read(0)
        page.insert(b"a")
        with pytest.raises(KeyError):
            page.read(5)

    def test_empty_record_allowed(self):
        page = Page()
        slot = page.insert(b"")
        assert page.read(slot) == b""


class TestPageCapacity:
    def test_page_full_raises(self):
        page = Page()
        record = b"y" * 1000
        inserted = 0
        with pytest.raises(PageFullError):
            for _ in range(20):
                page.insert(record)
                inserted += 1
        assert inserted >= 7  # 8 KiB page holds at least 7 such records

    def test_oversized_record_rejected_outright(self):
        page = Page()
        with pytest.raises(ValueError):
            page.insert(b"z" * PAGE_SIZE)

    def test_fits_predicate_matches_insert(self):
        page = Page()
        record = b"r" * 500
        while page.fits(record):
            page.insert(record)
        with pytest.raises(PageFullError):
            page.insert(record)


class TestPageDeletion:
    def test_delete_then_read_raises(self):
        page = Page()
        slot = page.insert(b"victim")
        kill_slot(page, slot)
        with pytest.raises(KeyError):
            page.read(slot)

    def test_delete_does_not_disturb_other_slots(self):
        page = Page()
        s0 = page.insert(b"keep-0")
        s1 = page.insert(b"remove")
        s2 = page.insert(b"keep-2")
        kill_slot(page, s1)
        assert page.read(s0) == b"keep-0"
        assert page.read(s2) == b"keep-2"
        assert slot_directories(page.to_bytes())[1].tolist() == [s0, s2]


class TestPageSerialisation:
    def test_round_trip_through_bytes(self):
        page = Page()
        page.insert(b"alpha")
        page.insert(b"beta")
        restored = Page(page.to_bytes())
        assert restored.read(0) == b"alpha"
        assert restored.read(1) == b"beta"
        assert restored.num_slots == 2

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            Page(b"\x00" * 100)

    def test_zeroed_page_is_valid_empty_page(self):
        page = Page(bytes(PAGE_SIZE))
        assert page.num_slots == 0
        assert page.free_space > 0
