"""Heap files: unordered record storage addressed by RID.

A heap file is the physical form of a ReTraTree partition.  Records are
placed in the first page with enough free space (a simple free-space map is
kept in memory); each record is addressed by its :class:`RID`
(page number, slot number), which is what the pg3D-Rtree index stores as its
leaf payload.

Records larger than a page are split into continuation chunks transparently.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import PAGE_SIZE, Page

__all__ = ["HeapFile", "RID"]

# Leave room for the page header, one slot entry and the chunk header.
_CHUNK_HEADER = 9  # 1 byte flag + 4 bytes next_page + 4 bytes next_slot
_MAX_CHUNK = PAGE_SIZE - 64


@dataclass(frozen=True, order=True)
class RID:
    """Record identifier: (page number, slot number)."""

    page_no: int
    slot: int


def _encode_chunk(payload: bytes, next_rid: "RID | None") -> bytes:
    if next_rid is None:
        header = bytes([0]) + (0).to_bytes(4, "little") + (0).to_bytes(4, "little")
    else:
        header = (
            bytes([1])
            + next_rid.page_no.to_bytes(4, "little")
            + next_rid.slot.to_bytes(4, "little")
        )
    return header + payload


def _next_chunk(raw: bytes) -> "RID | None":
    """Validate a chunk's header and return the RID of its continuation, if any.

    Needs only the first ``_CHUNK_HEADER`` bytes of the chunk.
    """
    if len(raw) < _CHUNK_HEADER:
        raise ValueError(
            f"record chunk of {len(raw)} bytes is shorter than the "
            f"{_CHUNK_HEADER}-byte chunk header; the stored record is corrupt"
        )
    if raw[0] not in (0, 1):
        raise ValueError(
            f"record chunk has continuation flag {raw[0]} (expected 0 or 1); "
            "the stored record is corrupt"
        )
    if raw[0] == 0:
        return None
    return RID(int.from_bytes(raw[1:5], "little"), int.from_bytes(raw[5:9], "little"))


def _decode_chunk(raw: bytes) -> tuple[bytes, "RID | None"]:
    return raw[_CHUNK_HEADER:], _next_chunk(raw)


def _chain(head: RID, successors: "dict[RID, RID | None]") -> list[RID]:
    """The chunk RIDs of the record starting at ``head``, in order.

    ``successors`` maps every live chunk to its continuation; a chain that
    leaves it or never ends is corruption.
    """
    chain = [head]
    cursor = successors[head]
    while cursor is not None:
        if cursor not in successors:
            raise ValueError(
                f"record at {head} has a broken continuation chain: "
                f"chunk {cursor} does not exist; the heap file is corrupt"
            )
        chain.append(cursor)
        if len(chain) > len(successors):
            raise ValueError(
                f"record at {head} has a cyclic continuation chain; "
                "the heap file is corrupt"
            )
        cursor = successors[cursor]
    return chain


class HeapFile:
    """Unordered record storage on top of a buffer pool."""

    def __init__(self, pool: BufferPool) -> None:
        self._pool = pool
        # free-space cache: page_no -> free bytes (approximate; refreshed on use)
        self._free_space: dict[int, int] = {}
        for page_no in range(pool.num_pages()):
            self._free_space[page_no] = pool.get_page(page_no).free_space

    @property
    def buffer_pool(self) -> BufferPool:
        return self._pool

    def num_pages(self) -> int:
        return self._pool.num_pages()

    # -- insert -----------------------------------------------------------------

    def _find_page_with_space(self, needed: int) -> int:
        for page_no, free in self._free_space.items():
            if free >= needed:
                return page_no
        page_no = self._pool.allocate_page()
        self._free_space[page_no] = PAGE_SIZE
        return page_no

    def _insert_chunk(self, chunk: bytes) -> RID:
        needed = len(chunk) + 8
        page_no = self._find_page_with_space(needed)
        page = self._pool.get_page(page_no)
        if not page.fits(chunk):
            # Stale free-space entry: allocate a fresh page.
            self._free_space[page_no] = page.free_space
            page_no = self._pool.allocate_page()
            self._free_space[page_no] = PAGE_SIZE
            page = self._pool.get_page(page_no)
        slot = page.insert(chunk)
        self._pool.mark_dirty(page_no)
        self._free_space[page_no] = page.free_space
        return RID(page_no, slot)

    def insert(self, record: bytes) -> RID:
        """Insert a record (of any length) and return the RID of its head chunk."""
        chunks = [record[i : i + _MAX_CHUNK] for i in range(0, len(record), _MAX_CHUNK)]
        if not chunks:
            chunks = [b""]
        # Insert chunks back-to-front so each knows its successor's RID.
        next_rid: RID | None = None
        for chunk in reversed(chunks):
            next_rid = self._insert_chunk(_encode_chunk(chunk, next_rid))
        assert next_rid is not None
        return next_rid

    # -- read / delete -------------------------------------------------------------

    def get(self, rid: RID) -> bytes:
        """Read the full record starting at ``rid``."""
        parts = []
        cursor: RID | None = rid
        while cursor is not None:
            page = self._pool.get_page(cursor.page_no)
            payload, cursor = _decode_chunk(page.read(cursor.slot))
            parts.append(payload)
        return b"".join(parts)

    def delete(self, rid: RID) -> None:
        """Delete the record (all of its chunks) starting at ``rid``."""
        cursor: RID | None = rid
        while cursor is not None:
            page = self._pool.get_page(cursor.page_no)
            _, nxt = _decode_chunk(page.read(cursor.slot))
            page.delete(cursor.slot)
            self._pool.mark_dirty(cursor.page_no)
            cursor = nxt

    # -- scan -----------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[RID, bytes]]:
        """Iterate over every live chunk in the file, page by page.

        Yields record heads *and* continuation chunks, each with its
        chunk header still attached; :meth:`scan_records` is the one that
        reassembles complete records.
        """
        for page_no in range(self._pool.num_pages()):
            page: Page = self._pool.get_page(page_no)
            for slot, raw in page.records():
                yield RID(page_no, slot), raw

    def scan_records(self) -> Iterator[tuple[RID, bytes]]:
        """Iterate over complete records (head chunks reassembled)."""
        payloads: dict[RID, bytes] = {}
        successors: dict[RID, RID | None] = {}
        for rid, raw in self.scan():
            payloads[rid], successors[rid] = _decode_chunk(raw)
        # A record head is a chunk no other chunk names as its continuation.
        continuations = {nxt for nxt in successors.values() if nxt is not None}
        for rid, nxt in successors.items():
            if rid in continuations:
                continue
            if nxt is None:
                yield rid, payloads[rid]
            else:
                yield rid, b"".join([payloads[c] for c in _chain(rid, successors)])

    def count_records(self) -> int:
        """Number of records :meth:`scan_records` would yield, read from headers only.

        Walks each page's slot directory and the chunk header of every live
        chunk — one ``get_page`` per page, no payload copied or joined — and
        follows the same chains, so the same damage raises the same
        :class:`ValueError` as a full scan: a slot outside the page's data
        area, a short chunk, an unknown continuation flag, a broken or a
        cyclic chain.
        """
        successors: dict[RID, RID | None] = {}
        for page_no in range(self._pool.num_pages()):
            page: Page = self._pool.get_page(page_no)
            for slot, header in page.record_prefixes(_CHUNK_HEADER):
                successors[RID(page_no, slot)] = _next_chunk(header)
        continuations = {nxt for nxt in successors.values() if nxt is not None}
        heads = 0
        for rid, nxt in successors.items():
            if rid in continuations:
                continue
            if nxt is not None:
                _chain(rid, successors)
            heads += 1
        return heads
