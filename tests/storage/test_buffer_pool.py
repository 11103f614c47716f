"""Unit tests for the LRU buffer pool."""

import pytest

from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import InMemoryPager


def _fill_pages(pool: BufferPool, n: int) -> list[int]:
    pages = []
    for i in range(n):
        page_no = pool.allocate_page()
        page = pool.get_page(page_no)
        page.insert(f"page-{i}".encode())
        pool.mark_dirty(page_no)
        pages.append(page_no)
    return pages


class TestBufferPoolBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(InMemoryPager(), capacity=0)

    def test_hit_after_first_access(self):
        pool = BufferPool(InMemoryPager(), capacity=4)
        page_no = pool.allocate_page()
        pool.flush_all()
        pool.get_page(page_no)
        hits_before = pool.stats.hits
        pool.get_page(page_no)
        assert pool.stats.hits == hits_before + 1

    def test_mark_dirty_requires_residency(self):
        pool = BufferPool(InMemoryPager(), capacity=2)
        with pytest.raises(KeyError):
            pool.mark_dirty(7)


class TestEvictionAndWriteBack:
    def test_eviction_happens_beyond_capacity(self):
        pool = BufferPool(InMemoryPager(), capacity=2)
        _fill_pages(pool, 5)
        assert pool.stats.evictions >= 3

    def test_dirty_pages_written_back_on_eviction(self):
        pager = InMemoryPager()
        pool = BufferPool(pager, capacity=2)
        pages = _fill_pages(pool, 4)
        # The first pages were evicted; their content must be in the pager.
        assert pager.read_page(pages[0]).read(0) == b"page-0"

    def test_flush_all_persists_everything(self):
        pager = InMemoryPager()
        pool = BufferPool(pager, capacity=16)
        pages = _fill_pages(pool, 5)
        pool.flush_all()
        for i, page_no in enumerate(pages):
            assert pager.read_page(page_no).read(0) == f"page-{i}".encode()

    def test_flush_page_clears_dirty_flag(self):
        pager = InMemoryPager()
        pool = BufferPool(pager, capacity=4)
        page_no = pool.allocate_page()
        pool.get_page(page_no).insert(b"x")
        pool.mark_dirty(page_no)
        pool.flush_page(page_no)
        written = pool.stats.pages_written
        pool.flush_page(page_no)  # second flush is a no-op
        assert pool.stats.pages_written == written

    def test_lru_keeps_recently_used_page(self):
        pool = BufferPool(InMemoryPager(), capacity=2)
        p0 = pool.allocate_page()
        p1 = pool.allocate_page()
        pool.get_page(p0)  # p0 becomes most recent
        pool.allocate_page()  # must evict p1, not p0
        misses_before = pool.stats.misses
        pool.get_page(p0)
        assert pool.stats.misses == misses_before  # p0 still resident
        pool.get_page(p1)
        assert pool.stats.misses == misses_before + 1


class TestStats:
    def test_reads_of_a_resident_page_are_hits(self):
        pool = BufferPool(InMemoryPager(), capacity=8)
        page_no = pool.allocate_page()
        pool.flush_all()
        for _ in range(9):
            pool.get_page(page_no)
        assert (pool.stats.hits, pool.stats.misses) == (9, 0)
        assert pool.stats.logical_reads == 9

    def test_reset(self):
        pool = BufferPool(InMemoryPager(), capacity=8)
        page_no = pool.allocate_page()
        pool.get_page(page_no)
        pool.stats.reset()
        assert pool.stats.hits == 0
        assert pool.stats.logical_reads == 0
