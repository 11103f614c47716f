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

import numpy as np

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


@dataclass(frozen=True)
class _PageChunks:
    """One page's live chunks as read by ``HeapFile._chunk_directory``.

    ``data`` is the pooled page's own buffer, not a copy; chunk ``i`` sits
    in slot ``slots[i]`` at ``data[offsets[i] : offsets[i] + lengths[i]]``,
    header included, and ``flags[i]`` is its continuation flag (0 or 1).
    """

    page_no: int
    data: bytearray
    slots: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    flags: np.ndarray

    def entries(self) -> Iterator[tuple[int, int, int]]:
        """``(slot, offset, length)`` of each live chunk, as Python ints."""
        return zip(self.slots.tolist(), self.offsets.tolist(), self.lengths.tolist())


def _successors(pages: "list[_PageChunks]") -> "dict[RID, RID | None]":
    """Every live chunk mapped to its continuation, in scan order."""
    successors: dict[RID, RID | None] = {}
    for page in pages:
        for (slot, offset, _length), flag in zip(page.entries(), page.flags.tolist()):
            successors[RID(page.page_no, slot)] = (
                _next_chunk(page.data[offset : offset + _CHUNK_HEADER]) if flag else None
            )
    return successors


def _record_chains(successors: "dict[RID, RID | None]") -> Iterator[list[RID]]:
    """The one chain walk: each record's chunk RIDs, head first, in scan order.

    A record head is a chunk no other chunk names as its continuation; a
    chain that leaves ``successors`` or never ends is corruption.
    """
    continuations = {nxt for nxt in successors.values() if nxt is not None}
    for head, nxt in successors.items():
        if head in continuations:
            continue
        chain = [head]
        cursor = nxt
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
        yield chain


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

    def _chunk_directory(self) -> list[_PageChunks]:
        """Every page's live chunks, with their chunk headers checked.

        One ``get_page`` per page, each page's slot directory read once
        (:meth:`Page.live_slots <repro.storage.page.Page.live_slots>`) and
        its chunks' continuation flags read as one array.  Page by page, the
        first slot outside the data area, then the first chunk shorter than
        its header or flagged neither 0 nor 1, raises :class:`ValueError`.
        """
        pages = []
        for page_no in range(self._pool.num_pages()):
            page: Page = self._pool.get_page(page_no)
            slots, offsets, lengths = page.live_slots()
            flags = np.frombuffer(page.data, dtype=np.uint8)[np.minimum(offsets, PAGE_SIZE - 1)]
            bad = (lengths < _CHUNK_HEADER) | (flags > 1)
            if bad.any():
                first = int(np.argmax(bad))
                start = int(offsets[first])
                _next_chunk(page.data[start : start + min(int(lengths[first]), _CHUNK_HEADER)])
            pages.append(_PageChunks(page_no, page.data, slots, offsets, lengths, flags))
        return pages

    def scan_records(self) -> Iterator[tuple[RID, bytes]]:
        """Iterate over complete records, in scan order (page, then slot, of the head).

        Every page is read once (:meth:`_chunk_directory`) before the first
        record is yielded.  When no live chunk carries the continuation
        flag — the common case: a record spans pages only past
        ``_MAX_CHUNK`` bytes — every chunk is a whole record and its payload
        is yielded as is.  Otherwise the chunks are reassembled along their
        chains (:func:`_record_chains`), which raises :class:`ValueError` on
        a broken or cyclic chain.
        """
        pages = self._chunk_directory()
        chunks = [
            (RID(page.page_no, slot), bytes(page.data[offset + _CHUNK_HEADER : offset + length]))
            for page in pages
            for slot, offset, length in page.entries()
        ]
        if not any(page.flags.any() for page in pages):
            yield from chunks
            return
        payloads = dict(chunks)
        for chain in _record_chains(_successors(pages)):
            yield chain[0], b"".join([payloads[rid] for rid in chain])

    def count_records(self) -> int:
        """Number of records :meth:`scan_records` would yield, read from headers only.

        The same page reads and checks as :meth:`scan_records` — one
        ``get_page`` per page, no payload copied or joined — so the same
        damage raises the same :class:`ValueError`: a slot outside the
        page's data area, a short chunk, an unknown continuation flag, a
        broken or a cyclic chain.  A file without continuation chunks (every
        ReTraTree partition of records under ``_MAX_CHUNK`` bytes) is
        counted from the slot directories alone.
        """
        pages = self._chunk_directory()
        if not any(page.flags.any() for page in pages):
            return sum(len(page.slots) for page in pages)
        return sum(1 for _chain in _record_chains(_successors(pages)))
