"""An LRU buffer pool over a :class:`~repro.storage.pager.Pager`.

The buffer pool is what makes the "in-DBMS" benchmarks meaningful: index
probes touch a handful of pages (buffer hits after warm-up), whereas naive
full scans churn through every partition page.  Hit/miss and physical I/O
counters are exposed through :class:`BufferPoolStats` and consumed by the
E6/E7 benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.storage.page import PAGE_SIZE, Page
from repro.storage.pager import Pager

__all__ = ["BufferPool", "BufferPoolStats"]


@dataclass
class BufferPoolStats:
    """Counters of logical and physical page accesses."""

    hits: int = 0
    misses: int = 0
    pages_read: int = 0
    pages_written: int = 0
    evictions: int = 0

    @property
    def logical_reads(self) -> int:
        return self.hits + self.misses

    def reset(self) -> None:
        self.hits = self.misses = 0
        self.pages_read = self.pages_written = self.evictions = 0


@dataclass
class _Frame:
    page: Page
    dirty: bool = False


class BufferPool:
    """Fixed-capacity page cache with LRU replacement and write-back."""

    def __init__(self, pager: Pager, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be at least 1")
        self._pager = pager
        self._capacity = capacity
        self._frames: OrderedDict[int, _Frame] = OrderedDict()
        self.stats = BufferPoolStats()

    # -- page access -----------------------------------------------------------

    @property
    def pager(self) -> Pager:
        """The page store under the pool."""
        return self._pager

    @property
    def io_retries(self) -> int:
        """Transient I/O failures the underlying pager absorbed via retries.

        Zero for pagers without retry support (the in-memory pager).
        Surfaced through :meth:`repro.storage.catalog.StorageManager.io_stats`
        so operators can spot a flaky disk before it turns into downtime.
        """
        return getattr(self._pager, "io_retries", 0)

    def num_pages(self) -> int:
        """Number of pages in the underlying pager."""
        return self._pager.num_pages()

    def allocate_page(self) -> int:
        """Allocate a fresh page in the underlying pager and cache it."""
        page_no = self._pager.allocate_page()
        self._admit(page_no, _Frame(Page(), dirty=False))
        return page_no

    def get_page(self, page_no: int) -> Page:
        """Fetch a page, reading it from the pager on a miss."""
        frame = self._frames.get(page_no)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(page_no)
            return frame.page
        self.stats.misses += 1
        self.stats.pages_read += 1
        page = self._pager.read_page(page_no)
        self._admit(page_no, _Frame(page))
        return page

    def preload(self, image: bytes) -> None:
        """Cache the pages of ``image``, the pager's file just read whole, as clean frames.

        Each page cached counts once in ``pages_read`` — it was read from
        disk — and none as a miss: nothing asked for it yet.  Only the first
        ``capacity`` pages are kept, so a scan in page order hits them
        before it starts evicting.
        """
        view = memoryview(image)
        for page_no in range(min(len(image) // PAGE_SIZE, self._capacity)):
            self._admit(page_no, _Frame(Page(view[page_no * PAGE_SIZE : (page_no + 1) * PAGE_SIZE])))
            self.stats.pages_read += 1

    def mark_dirty(self, page_no: int) -> None:
        """Record that the cached copy of ``page_no`` has been modified."""
        frame = self._frames.get(page_no)
        if frame is None:
            raise KeyError(f"page {page_no} is not resident in the buffer pool")
        frame.dirty = True

    # -- write-back ---------------------------------------------------------------

    def flush_page(self, page_no: int) -> None:
        """Write a dirty cached page back to the pager."""
        frame = self._frames.get(page_no)
        if frame is not None and frame.dirty:
            self._pager.write_page(page_no, frame.page)
            self.stats.pages_written += 1
            frame.dirty = False

    def flush_all(self) -> None:
        """Write back every dirty page and flush the pager's own buffers."""
        for page_no in list(self._frames):
            self.flush_page(page_no)
        self._pager.flush()

    def sync(self) -> None:
        """:meth:`flush_all` plus an fsync to stable storage (durable pagers)."""
        self.flush_all()
        self._pager.sync()

    def close(self) -> None:
        """Flush everything and close the pager."""
        self.flush_all()
        self._pager.close()

    # -- internals ------------------------------------------------------------------

    def _admit(self, page_no: int, frame: _Frame) -> None:
        self._frames[page_no] = frame
        self._frames.move_to_end(page_no)
        while len(self._frames) > self._capacity:
            victim_no, victim = self._frames.popitem(last=False)
            if victim.dirty:
                self._pager.write_page(victim_no, victim.page)
                self.stats.pages_written += 1
            self.stats.evictions += 1
