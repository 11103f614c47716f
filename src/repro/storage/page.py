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

Reads go through one slot-directory reader, :meth:`Page.live_slots`: the
directory is read as one array, deleted slots are skipped and every live
slot is bounds-checked in one vectorised pass, so a scan pays no Python
loop per slot before it copies a record.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.storage.errors import StorageError

__all__ = ["Page", "PAGE_SIZE"]

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

    :meth:`live_slots` is the one reader of the slot directory for scans
    (:meth:`records`, and :class:`~repro.storage.heapfile.HeapFile`'s
    ``scan_records`` / ``count_records``); :meth:`read` checks the one slot
    it is asked for with the same bounds test and message.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes | bytearray | None = None) -> None:
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
        if not (0 <= slot < self.num_slots):
            raise KeyError(f"slot {slot} out of range (page has {self.num_slots} slots)")
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise KeyError(f"slot {slot} has been deleted")
        self._check_slot_bounds(slot, offset, length)
        return bytes(self.data[offset : offset + length])

    def _check_slot_bounds(self, slot: int, offset: int, length: int) -> None:
        """Reject slot entries describing impossible records.

        A valid record lives strictly between the slot directory and the
        page end; anything else is a corrupt (bit-flipped or torn) slot
        entry, and silently returning the garbage bytes it points at would
        let corruption propagate into query answers.
        """
        directory_end = _HEADER.size + self.num_slots * _SLOT.size
        if offset < directory_end or offset + length > PAGE_SIZE:
            raise ValueError(
                f"slot {slot} is corrupt: record [{offset}, {offset + length}) "
                f"lies outside the valid data area [{directory_end}, {PAGE_SIZE})"
            )

    def delete(self, slot: int) -> None:
        """Mark the record at ``slot`` as deleted (space is not reclaimed)."""
        if not (0 <= slot < self.num_slots):
            raise KeyError(f"slot {slot} out of range")
        self._write_slot(slot, 0, 0)

    def live_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live slots as ``(slots, offsets, lengths)`` integer arrays, in slot order.

        The one slot-directory reader.  The directory is read as one
        ``uint16`` array over the first ``4 + 4·num_slots`` bytes, deleted
        slots (offset 0) are skipped, and every live record is checked to lie
        between the directory and the page end in one vectorised pass; the
        first slot that does not raises the :class:`ValueError` :meth:`read`
        gives for it.  A ``num_slots`` whose directory would overrun the page
        is corruption too.
        """
        num_slots = self.num_slots
        readable = min(num_slots, _MAX_SLOTS)
        directory = np.frombuffer(self.data, dtype="<u2", count=2 + 2 * readable)
        offsets = directory[2::2].astype(np.intp)
        slots = np.flatnonzero(offsets)
        offsets = offsets[slots]
        lengths = directory[3::2][slots].astype(np.intp)
        directory_end = _HEADER.size + num_slots * _SLOT.size
        bad = (offsets < directory_end) | (offsets + lengths > PAGE_SIZE)
        if bad.any():
            first = int(np.argmax(bad))
            self._check_slot_bounds(int(slots[first]), int(offsets[first]), int(lengths[first]))
        if readable < num_slots:
            raise ValueError(
                f"page claims {num_slots} slots but a {PAGE_SIZE}-byte page holds at "
                f"most {_MAX_SLOTS}; the slot directory is corrupt"
            )
        return slots, offsets, lengths

    def records(self) -> list[tuple[int, bytes]]:
        """All live ``(slot, record)`` pairs of the page."""
        slots, offsets, lengths = self.live_slots()
        return [
            (slot, bytes(self.data[offset : offset + length]))
            for slot, offset, length in zip(slots.tolist(), offsets.tolist(), lengths.tolist())
        ]

    def to_bytes(self) -> bytes:
        """The raw page image."""
        return bytes(self.data)
