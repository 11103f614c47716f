"""Heap files: unordered record storage addressed by RID.

A heap file is the physical form of a ReTraTree partition.  Records are
placed in the first page with enough free space (a simple free-space map is
kept in memory); each record is addressed by its :class:`RID`
(page number, slot number).

Records larger than a page are split into continuation chunks transparently.

Scans read many files at once: :func:`read_records` joins the pooled page
images of every file it is given — a QuT sub-chunk's member partitions and
its unclustered one, say — reads all of their slot directories and chunk
flags as arrays (:func:`~repro.storage.page.slot_directories`) and returns
every record as a span of that one image, without a copy per record.
:func:`count_records` reads the same headers and counts each file's records.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from repro.storage.buffer_pool import BufferPool
from repro.storage.page import PAGE_SIZE, slot_directories

__all__ = ["HeapFile", "HeapRecords", "RID", "count_records", "read_records"]

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


def _malformed(raw: bytes) -> ValueError | None:
    """The refusal of a chunk whose header is damaged, or ``None``.

    Needs only the first ``_CHUNK_HEADER`` bytes of the chunk.
    """
    if len(raw) < _CHUNK_HEADER:
        return ValueError(
            f"record chunk of {len(raw)} bytes is shorter than the "
            f"{_CHUNK_HEADER}-byte chunk header; the stored record is corrupt"
        )
    if raw[0] not in (0, 1):
        return ValueError(
            f"record chunk has continuation flag {raw[0]} (expected 0 or 1); "
            "the stored record is corrupt"
        )
    return None


def _next_chunk(raw: bytes) -> "RID | None":
    """Validate a chunk's header and return the RID of its continuation, if any.

    Needs only the first ``_CHUNK_HEADER`` bytes of the chunk.
    """
    error = _malformed(raw)
    if error is not None:
        raise error
    if raw[0] == 0:
        return None
    return RID(int.from_bytes(raw[1:5], "little"), int.from_bytes(raw[5:9], "little"))


def _decode_chunk(raw: bytes) -> tuple[bytes, "RID | None"]:
    return raw[_CHUNK_HEADER:], _next_chunk(raw)


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


@dataclass(frozen=True)
class HeapRecords:
    """Every record of a run of heap files, as spans of one byte image.

    Record ``i`` is ``image[starts[i] : starts[i] + lengths[i]]``, chunk
    headers stripped; file ``k``'s records are ``bounds[k]:bounds[k + 1]``,
    each file's in scan order (page, then slot, of the record's head).
    """

    image: bytes
    starts: np.ndarray
    lengths: np.ndarray
    bounds: np.ndarray


@dataclass(frozen=True)
class _Chunks:
    """Every live chunk of a run of heap files, read as arrays.

    ``image`` is the files' pooled page images joined in file then page
    order.  Chunk ``i`` is in slot ``slots[i]`` of image page ``pages[i]``
    at ``image[starts[i] : starts[i] + lengths[i]]``, header included, and
    ``flags[i]`` is its continuation flag; file ``k`` owns image pages
    ``first_page[k]:first_page[k + 1]`` and chunks
    ``file_chunks[k]:file_chunks[k + 1]``.  ``damage`` is the first damaged
    page's refusal, ``(file, error)``, or ``None``.
    """

    image: bytes
    pages: np.ndarray
    slots: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    flags: np.ndarray
    first_page: list[int]
    file_chunks: list[int]
    damage: tuple[int, ValueError] | None

    @classmethod
    def read(cls, files: Sequence[HeapFile | bytes]) -> "_Chunks":
        """One ``get_page`` per page of every file, every directory and chunk flag as arrays.

        A file is a heap file, read through its buffer pool, or the page
        images of one, joined.  The pages' slot directories are read together
        (:func:`~repro.storage.page.slot_directories`) and the chunks'
        continuation flags as one array.  The first damaged page — in file,
        then page order — is kept as ``damage``: its first slot outside the
        data area, else its directory overrunning the page, else its first
        chunk shorter than the chunk header or flagged neither 0 nor 1, with
        the :class:`ValueError` each of those raises.
        """
        datas = []
        first_page = [0]
        for file in files:
            if isinstance(file, HeapFile):
                pool = file.buffer_pool
                pages = pool.num_pages()
                datas.extend(pool.get_page(page_no).data for page_no in range(pages))
            else:
                pages = len(file) // PAGE_SIZE
                datas.append(file)
            first_page.append(first_page[-1] + pages)
        image = b"".join(datas)
        pages, slots, offsets, lengths, damage = slot_directories(image)
        starts = pages * PAGE_SIZE + offsets
        flags = np.frombuffer(image, dtype=np.uint8)[
            np.minimum(starts, pages * PAGE_SIZE + PAGE_SIZE - 1)
        ]
        malformed = (lengths < _CHUNK_HEADER) | (flags > 1)
        if malformed.any():
            at = int(np.argmax(malformed))
            if damage is None or pages[at] < damage[0]:
                start = int(starts[at])
                raw = image[start : start + min(int(lengths[at]), _CHUNK_HEADER)]
                damage = (int(pages[at]), _malformed(raw))
        file_chunks = np.searchsorted(pages, first_page).tolist()
        if damage is not None:
            damage = (int(np.searchsorted(first_page, damage[0], side="right")) - 1, damage[1])
        return cls(image, pages, slots, starts, lengths, flags, first_page, file_chunks, damage)

    def files(self) -> Iterator[tuple[int, int, "list[list[int]] | None"]]:
        """Each file's chunk range ``(lo, hi)`` and records, in file order.

        The records are ``None`` when no chunk of the file is a continuation
        — each chunk is then one whole record — else the chunk indices of
        each record, head first, in scan order (:func:`_record_chains`).
        The files are walked in order and each one's damage is raised when
        it is reached, so a broken or cyclic chain in an earlier file is
        reported before a damaged page of a later one.
        """
        for k, (lo, hi) in enumerate(zip(self.file_chunks[:-1], self.file_chunks[1:])):
            if self.damage is not None and self.damage[0] == k:
                raise self.damage[1]
            if not self.flags[lo:hi].any():
                yield lo, hi, None
                continue
            base = self.first_page[k]
            index: dict[RID, int] = {}
            successors: dict[RID, RID | None] = {}
            for i in range(lo, hi):
                rid = RID(int(self.pages[i]) - base, int(self.slots[i]))
                index[rid] = i
                start = int(self.starts[i])
                successors[rid] = (
                    _next_chunk(self.image[start : start + _CHUNK_HEADER]) if self.flags[i] else None
                )
            yield lo, hi, [[index[rid] for rid in chain] for chain in _record_chains(successors)]


def count_records(files: Sequence[HeapFile | bytes]) -> list[int]:
    """Number of records :func:`read_records` finds in each of ``files``, read from headers only.

    A file is a heap file or the joined page images of one (a partition
    file read whole, as ``repro-fsck`` and the verified open read it).  The
    same page reads and checks as :func:`read_records` — one ``get_page``
    per page of a heap file, no payload copied — so the same damage raises
    the same :class:`ValueError`: a slot outside the page's data area, a
    short chunk, an unknown continuation flag, a broken or a cyclic chain.
    A file without continuation chunks (every ReTraTree partition of
    records under ``_MAX_CHUNK`` bytes) is counted from the slot
    directories alone.
    """
    return [hi - lo if chains is None else len(chains) for lo, hi, chains in _Chunks.read(files).files()]


def read_records(heapfiles: Sequence[HeapFile]) -> HeapRecords:
    """Every record of ``heapfiles``, in file order, as spans of one image.

    The one heap reader: every page is fetched from its buffer pool exactly
    once and the pooled images are joined once; the slot directories and
    chunk flags of all pages are read as arrays, and no record is copied.
    When no chunk of a file is a continuation — the common case: a record
    spans pages only past ``_MAX_CHUNK`` bytes — each of its chunks is a
    whole record and is spanned in place, past its chunk header.  A file
    with continuation chunks is reassembled along its chains
    (:func:`_record_chains`) and its records are appended to the image.

    Damage raises :class:`ValueError` with the text the per-slot walk gives
    for it, for the first damage in file order; within a file, for the first
    damaged page in page order, and only then for a broken or cyclic chain.
    """
    chunks = _Chunks.read(heapfiles)
    starts = chunks.starts + _CHUNK_HEADER
    lengths = chunks.lengths - _CHUNK_HEADER
    file_starts = [np.empty(0, dtype=np.intp)]
    file_lengths = [np.empty(0, dtype=np.intp)]
    counts = [0]
    reassembled: list[bytes] = []
    end = len(chunks.image)
    for lo, hi, chains in chunks.files():
        if chains is None:
            file_starts.append(starts[lo:hi])
            file_lengths.append(lengths[lo:hi])
            counts.append(hi - lo)
            continue
        records = [
            b"".join([chunks.image[starts[i] : starts[i] + lengths[i]] for i in chain])
            for chain in chains
        ]
        spans = np.fromiter(map(len, records), dtype=np.intp, count=len(records))
        file_starts.append(end + np.cumsum(spans) - spans)
        file_lengths.append(spans)
        counts.append(len(records))
        reassembled.extend(records)
        end += int(spans.sum())
    return HeapRecords(
        b"".join([chunks.image, *reassembled]) if reassembled else chunks.image,
        np.concatenate(file_starts),
        np.concatenate(file_lengths),
        np.cumsum(counts, dtype=np.intp),
    )
