"""Slotted pages.

Records inside a page are addressed by slot number.  The layout is the
classic slotted-page design used by PostgreSQL heap pages:

```
+-------------------+----------------------------+------------------+
| header (4 bytes)  | slot directory (4 B/slot)  | ... free ... data|
+-------------------+----------------------------+------------------+
```

* header: ``uint16 num_slots``, ``uint16 data_start`` (offset of the lowest
  record byte; records grow downwards from the end of the page),
* slot entry: ``uint16 offset``, ``uint16 length``; an offset of 0 marks a
  deleted slot (0 can never be a record offset because the header occupies
  the first bytes of the page), so zero-length records remain representable.

Scans go through one slot-directory reader, :func:`slot_directories`, and it
spans pages and files: it takes the joined images of any number of pages —
every page of every heap file a read needs — and reads all of their
directories as one ``uint16`` array, skips deleted slots and bounds-checks
every live slot in one vectorised pass, so a scan pays no Python loop per
page or per slot.  :meth:`Page.read` checks the one slot it is asked for
with the same bounds test and message.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.storage.errors import StorageError

__all__ = ["Page", "PAGE_SIZE", "slot_directories"]

PAGE_SIZE = 8192
_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
# Slot entries that fit between the header and the page end.
_MAX_SLOTS = (PAGE_SIZE - _HEADER.size) // _SLOT.size


class PageFullError(StorageError):
    """Raised when a record does not fit in the page.

    Part of the storage exception contract: subclasses
    :class:`~repro.storage.errors.StorageError` so it may escape public
    storage functions (heapfiles catch it to allocate a fresh page; a
    caller seeing it directly still gets a contract type).
    """


class Page:
    """A single slotted page of ``PAGE_SIZE`` bytes.

    Scans read the slot directory through :func:`slot_directories`;
    :meth:`read` checks the one slot it is asked for with the same bounds
    test and message.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes | bytearray | memoryview | None = None) -> None:
        if data is None:
            self.data = bytearray(PAGE_SIZE)
            self._write_header(0, PAGE_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise ValueError(f"page must be exactly {PAGE_SIZE} bytes")
            self.data = bytearray(data)
            if self.num_slots == 0 and self.data_start == 0:
                # Freshly zeroed page: initialise the header.
                self._write_header(0, PAGE_SIZE)

    # -- header helpers ------------------------------------------------------

    def _write_header(self, num_slots: int, data_start: int) -> None:
        _HEADER.pack_into(self.data, 0, num_slots, data_start % 65536)

    @property
    def num_slots(self) -> int:
        """Number of slot entries (including deleted ones)."""
        return _HEADER.unpack_from(self.data, 0)[0]

    @property
    def data_start(self) -> int:
        """Offset of the first (lowest) used data byte."""
        raw = _HEADER.unpack_from(self.data, 0)[1]
        return PAGE_SIZE if raw == 0 and self.num_slots == 0 else raw or PAGE_SIZE

    def _slot_offset(self, slot: int) -> int:
        return _HEADER.size + slot * _SLOT.size

    def _read_slot(self, slot: int) -> tuple[int, int]:
        return _SLOT.unpack_from(self.data, self._slot_offset(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, self._slot_offset(slot), offset, length)

    # -- capacity -------------------------------------------------------------

    @property
    def free_space(self) -> int:
        """Bytes available for a new record (including its slot entry)."""
        directory_end = _HEADER.size + self.num_slots * _SLOT.size
        return max(0, self.data_start - directory_end)

    def fits(self, record: bytes) -> bool:
        """Whether ``record`` (plus a new slot entry) fits in this page."""
        return len(record) + _SLOT.size <= self.free_space

    # -- record operations ------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Insert a record and return its slot number.

        Raises :class:`PageFullError` when the record does not fit.  Records
        longer than what an empty page can hold are rejected with
        :class:`ValueError` (callers must chunk them at a higher level).
        """
        if len(record) + _SLOT.size > PAGE_SIZE - _HEADER.size:
            raise ValueError(
                f"record of {len(record)} bytes can never fit in a {PAGE_SIZE}-byte page"
            )
        if not self.fits(record):
            raise PageFullError(
                f"record of {len(record)} bytes does not fit (free={self.free_space})"
            )
        slot = self.num_slots
        new_start = self.data_start - len(record)
        self.data[new_start : new_start + len(record)] = record
        self._write_slot(slot, new_start, len(record))
        self._write_header(slot + 1, new_start)
        return slot

    def read(self, slot: int) -> bytes:
        """Read the record stored at ``slot``.

        Raises :class:`KeyError` for out-of-range or deleted slots.
        """
        num_slots = self.num_slots
        if not (0 <= slot < num_slots):
            raise KeyError(f"slot {slot} out of range (page has {num_slots} slots)")
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise KeyError(f"slot {slot} has been deleted")
        if offset < _directory_end(num_slots) or offset + length > PAGE_SIZE:
            raise _outside_data_area(slot, offset, length, num_slots)
        return bytes(self.data[offset : offset + length])

    def to_bytes(self) -> bytes:
        """The raw page image."""
        return bytes(self.data)


def _directory_end(num_slots):
    """First byte past a directory of ``num_slots`` entries (scalar or array)."""
    return _HEADER.size + num_slots * _SLOT.size


def _outside_data_area(slot: int, offset: int, length: int, num_slots: int) -> ValueError:
    """The refusal of a slot entry describing an impossible record.

    A valid record lives strictly between the slot directory and the page
    end; anything else is a corrupt (bit-flipped or torn) slot entry, and
    silently returning the garbage bytes it points at would let corruption
    propagate into query answers.
    """
    return ValueError(
        f"slot {slot} is corrupt: record [{offset}, {offset + length}) "
        f"lies outside the valid data area [{_directory_end(num_slots)}, {PAGE_SIZE})"
    )


def slot_directories(
    image: bytes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ValueError] | None]:
    """Every live slot of a run of page images, read as arrays.

    ``image`` is any number of ``PAGE_SIZE``-byte page images joined end to
    end.  Returns ``(pages, slots, offsets, lengths, damage)``: one entry
    per live slot, in page then slot order — the index of its page in
    ``image``, its slot number, and its record's offset and length within
    that page.  Every directory is read from one ``uint16`` view of
    ``image``, deleted slots (offset 0) are skipped, and every live record
    is checked to lie between its page's directory and the page end in one
    vectorised pass.

    ``damage`` is ``None`` for sound directories, else ``(page, error)``
    for the first damaged page: the :class:`ValueError` :meth:`Page.read`
    gives for its first slot outside the data area or, when there is none,
    for a ``num_slots`` whose directory would overrun the page.  The caller
    decides when to raise it, so damage found in other structures of
    earlier pages can be reported first.
    """
    words = np.frombuffer(image, dtype="<u2").reshape(-1, PAGE_SIZE // 2)
    num_slots = words[:, 0].astype(np.intp)
    readable = np.minimum(num_slots, _MAX_SLOTS)
    # Every page's entries up to the longest directory, one (offset, length) row each.
    width = int(readable.max()) if len(words) else 0
    entries = words[:, 2 : 2 + 2 * width].reshape(len(words), width, 2)
    pages, slots = np.nonzero((entries[:, :, 0] != 0) & (np.arange(width) < readable[:, None]))
    offsets = entries[pages, slots, 0].astype(np.intp)
    lengths = entries[pages, slots, 1].astype(np.intp)
    outside = (offsets < _directory_end(num_slots)[pages]) | (offsets + lengths > PAGE_SIZE)
    overrun = readable < num_slots
    damage = None
    if outside.any() or overrun.any():
        overrun = np.flatnonzero(overrun)
        at = int(np.argmax(outside)) if outside.any() else -1
        if overrun.size and (at < 0 or overrun[0] < pages[at]):
            page = int(overrun[0])
            damage = (
                page,
                ValueError(
                    f"page claims {int(num_slots[page])} slots but a {PAGE_SIZE}-byte page "
                    f"holds at most {_MAX_SLOTS}; the slot directory is corrupt"
                ),
            )
        else:
            page = int(pages[at])
            damage = (
                page,
                _outside_data_area(
                    int(slots[at]), int(offsets[at]), int(lengths[at]), int(num_slots[page])
                ),
            )
    return pages, slots, offsets, lengths, damage
