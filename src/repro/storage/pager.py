"""Page stores.

A pager owns an ordered collection of fixed-size pages and knows how to read
and write them by page number.  Two implementations are provided:

* :class:`FilePager` -- pages live in a single file on disk (one partition
  file per ReTraTree partition, mirroring the paper's disk-based partitions),
* :class:`InMemoryPager` -- pages live in a list; used for tests and for the
  purely in-memory engine configuration.

A :class:`FilePager` performs all of its OS calls through an
:class:`~repro.storage.faults.IOShim` (transparent by default; tests pass a
:class:`~repro.storage.faults.FaultInjector`), and wraps every physical
read, write and fsync in a bounded retry with backoff so *transient* I/O
errors — the kind a loaded NFS mount or a USB hiccup produces — do not
fail a query or a checkpoint that a second attempt would have served.
Retries performed are counted in :attr:`FilePager.io_retries`.

A :class:`FilePager` opens its file without touching the directory (the
catalog that owns the directory creates it once) and can read the whole
file in one shimmed call (:meth:`FilePager.read_image`), which is how a
partition is verified and its buffer pool filled on a cold open
(:meth:`repro.storage.catalog.StorageManager.get_or_create`).

A :class:`FilePager` also remembers what it wrote, so durability costs what
changed: :meth:`FilePager.sync` skips the fsync when nothing was written
since the last one, and :meth:`FilePager.page_checksums` re-reads only the
pages written since the last commit (:meth:`FilePager.mark_committed`).
"""

from __future__ import annotations

import os
import zlib
from abc import ABC, abstractmethod
from collections.abc import Sequence
from pathlib import Path as FsPath

from repro.storage.errors import CorruptPartitionError
from repro.storage.faults import DEFAULT_IO, IOShim, with_retries
from repro.storage.page import PAGE_SIZE, Page

__all__ = ["Pager", "FilePager", "InMemoryPager", "torn_tail"]


def torn_tail(name: str, size: int, path: FsPath | None = None) -> CorruptPartitionError:
    """The refusal of partition ``name``'s file of ``size`` bytes, not a whole number of pages."""
    return CorruptPartitionError(
        f"partition {name!r} has size {size}, not a multiple of the page size "
        "— the file tail is torn",
        path=path,
        offset=size - (size % PAGE_SIZE),
    )


class Pager(ABC):
    """Abstract page store."""

    @abstractmethod
    def num_pages(self) -> int:
        """Number of pages currently allocated."""

    @abstractmethod
    def allocate_page(self) -> int:
        """Append a fresh page and return its page number."""

    @abstractmethod
    def read_page(self, page_no: int) -> Page:
        """Read the page with the given number."""

    @abstractmethod
    def write_page(self, page_no: int, page: Page) -> None:
        """Persist the page image under the given number."""

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    def flush(self) -> None:
        """Push buffered writes to the backing store (no-op by default)."""

    def sync(self) -> None:
        """Force buffered writes to *stable storage* (defaults to flush)."""
        self.flush()


class InMemoryPager(Pager):
    """Pages held in a Python list — no durability, maximal speed."""

    def __init__(self) -> None:
        self._pages: list[bytearray] = []

    def num_pages(self) -> int:
        return len(self._pages)

    def allocate_page(self) -> int:
        self._pages.append(bytearray(Page().to_bytes()))
        return len(self._pages) - 1

    def read_page(self, page_no: int) -> Page:
        return Page(bytes(self._pages[page_no]))

    def write_page(self, page_no: int, page: Page) -> None:
        if not (0 <= page_no < len(self._pages)):
            raise IndexError(f"page {page_no} not allocated")
        self._pages[page_no] = bytearray(page.to_bytes())


class FilePager(Pager):
    """Pages stored back-to-back in a single binary file.

    The file is opened unbuffered through the I/O shim, so every page
    write issued here is a real syscall — which is what makes the fault
    injector's crash simulation (and the engine's checkpoint ordering
    argument) faithful.  Opening creates the file when it is absent
    (:attr:`created`) but never its directory, and costs no ``stat``: the
    size comes from a seek to the end, and a size that is not a whole
    number of pages raises :class:`CorruptPartitionError` (a torn tail).
    """

    def __init__(self, path: str | FsPath, io: IOShim | None = None) -> None:
        self.path = FsPath(path)
        self._io = io if io is not None else DEFAULT_IO
        #: Transient I/O failures absorbed by retries since opening.
        self.io_retries = 0
        # Open for read/write, creating the file if needed.  The directory
        # is the caller's: a catalog makes it once, not on every open.
        try:
            self._file = self._io.open(self.path, "r+b")
            #: Whether this open created the file (it did not exist).
            self.created = False
        except FileNotFoundError:
            self._file = self._io.open(self.path, "w+b")
            self.created = True
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size % PAGE_SIZE != 0:
            self._file.close()
            raise torn_tail(self.path.stem, size, self.path)
        self._num_pages = size // PAGE_SIZE
        # Pages written since mark_committed(), and whether anything was
        # written since the last fsync.
        self._written: set[int] = set()
        self._unsynced = False

    def _retry(self, fn):
        """Run one physical I/O op with bounded retry, counting retries."""

        def note() -> None:
            self.io_retries += 1

        return with_retries(fn, on_retry=note)

    def num_pages(self) -> int:
        return self._num_pages

    def allocate_page(self) -> int:
        page_no = self._num_pages

        def write_fresh() -> None:
            self._file.seek(page_no * PAGE_SIZE)
            self._io.write(self._file, Page().to_bytes())

        self._retry(write_fresh)
        self._note_write(page_no)
        self._num_pages += 1
        return page_no

    def _note_write(self, page_no: int) -> None:
        self._written.add(page_no)
        self._unsynced = True

    def _read_bytes(self, page_no: int) -> bytes:
        """One page's bytes as stored in the file."""
        if not (0 <= page_no < self._num_pages):
            raise IndexError(f"page {page_no} not allocated in {self.path}")

        def read() -> bytes:
            self._file.seek(page_no * PAGE_SIZE)
            return self._io.read(self._file, PAGE_SIZE)

        data = self._retry(read)
        if len(data) != PAGE_SIZE:
            raise CorruptPartitionError(
                f"{self.path} page {page_no} is truncated "
                f"({len(data)} of {PAGE_SIZE} bytes)",
                path=self.path,
                offset=page_no * PAGE_SIZE,
            )
        return data

    def read_page(self, page_no: int) -> Page:
        return Page(self._read_bytes(page_no))

    def read_image(self) -> bytes:
        """The whole file, in one shimmed read (with transient-error retry).

        Raises :class:`CorruptPartitionError` when what was read is not a
        whole number of pages (the tail was torn after the open).
        """

        def read() -> bytes:
            self._file.seek(0)
            return self._io.read(self._file, -1)

        image = self._retry(read)
        if len(image) % PAGE_SIZE != 0:
            raise torn_tail(self.path.stem, len(image), self.path)
        return image

    def write_page(self, page_no: int, page: Page) -> None:
        if not (0 <= page_no < self._num_pages):
            raise IndexError(f"page {page_no} not allocated in {self.path}")

        def write() -> None:
            self._file.seek(page_no * PAGE_SIZE)
            self._io.write(self._file, page.to_bytes())

        self._retry(write)
        self._note_write(page_no)

    def page_checksums(self, committed: Sequence[int]) -> list[int]:
        """Per-page CRC32s of the file, re-reading only what this pager wrote.

        ``committed`` is the list the last committed manifest recorded for
        this file.  A page written since :meth:`mark_committed` — or beyond
        that list — is read back and checksummed; every other page keeps its
        recorded CRC, so a byte damaged on disk in a page this process never
        wrote is never recorded as valid.  A file dropped and recreated
        under the same name is a new pager that wrote every page it has, so
        none of the old file's CRCs carry over.  Call after :meth:`sync`.
        """
        return [
            int(committed[page_no])
            if page_no < len(committed) and page_no not in self._written
            else zlib.crc32(self._read_bytes(page_no))
            for page_no in range(self._num_pages)
        ]

    def mark_committed(self) -> None:
        """The file's pages now match the manifest just committed."""
        self._written.clear()

    def flush(self) -> None:
        """Flush Python-level buffers so other handles see the pages.

        The file is opened unbuffered, so this is effectively a no-op kept
        for the :class:`Pager` contract.
        """
        if not self._file.closed:
            self._file.flush()

    def sync(self) -> None:
        """Flush and fsync the underlying file (with transient-error retry).

        A pager that has written nothing since its last fsync has nothing
        to force to disk and skips the call.
        """
        if not self._file.closed and self._unsynced:
            self._file.flush()
            self._retry(lambda: self._io.fsync(self._file))
            self._unsynced = False

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()
