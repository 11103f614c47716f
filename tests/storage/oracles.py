"""The per-record and per-slot read paths the batched ones are pinned against.

``repro.storage.records.read_partitions`` reads a whole sub-chunk — many
heap files — into one checked frame, parsing every record header as
arrays.  The record-at-a-time parser it replaced — one ``TrajectoryRecord``
per record, then one validated ``Trajectory`` (or ``SubTrajectory``) object
each — survives here as the equivalence oracle: same bytes in, same ids,
bounds and samples out, and the same ``ValueError`` message for every
corruption.

``repro.storage.heapfile.read_records`` / ``HeapFile.count_records`` read
the slot directories of every page of every file as one array.  The
per-slot walk they replaced — one ``struct`` unpack and bounds check per
slot, every chunk keyed by its ``RID`` in a successor map and reassembled
along its chain — survives here too (:func:`scan_records_per_slot`,
:func:`count_records_per_slot`): same records in the same order, the same
``ValueError`` message for every damage.  Over a sub-chunk, the oracle
scans its files in order, then decodes their records in order: every
directory before any record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.storage.heapfile import _CHUNK_HEADER, RID, HeapFile, _decode_chunk, _next_chunk
from repro.storage.page import PAGE_SIZE, Page

_U16 = struct.Struct("<H")
_I32 = struct.Struct("<i")
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class TrajectoryRecord:
    """The decoded form of one stored record."""

    obj_id: str
    traj_id: str
    parent_start: int
    parent_end: int
    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray

    @property
    def is_subtrajectory(self) -> bool:
        return self.parent_start >= 0

    def to_trajectory(self) -> Trajectory:
        """Materialise the record as a validated :class:`Trajectory`."""
        return Trajectory(self.obj_id, self.traj_id, self.xs, self.ys, self.ts)


def decode_record(raw: bytes) -> TrajectoryRecord:
    """Deserialise one record, raising ``truncated record`` diagnostics."""
    offset = 0

    def need(count: int, what: str) -> None:
        if offset + count > len(raw):
            raise ValueError(
                f"truncated record: {what} needs bytes [{offset}, {offset + count}) "
                f"but only {len(raw)} are stored"
            )

    def unpack_str() -> str:
        nonlocal offset
        need(_U16.size, "identifier length")
        (length,) = _U16.unpack_from(raw, offset)
        offset += _U16.size
        need(length, "identifier")
        value = raw[offset : offset + length].decode("utf-8")
        offset += length
        return value

    obj_id = unpack_str()
    traj_id = unpack_str()
    need(2 * _I32.size + _U32.size, "record header")
    (parent_start,) = _I32.unpack_from(raw, offset)
    offset += _I32.size
    (parent_end,) = _I32.unpack_from(raw, offset)
    offset += _I32.size
    (n,) = _U32.unpack_from(raw, offset)
    offset += _U32.size
    need(24 * n, f"{n} samples")
    data = np.frombuffer(raw, dtype="<f8", count=3 * n, offset=offset).reshape(n, 3)
    return TrajectoryRecord(
        obj_id=obj_id,
        traj_id=traj_id,
        parent_start=parent_start,
        parent_end=parent_end,
        xs=data[:, 0].copy(),
        ys=data[:, 1].copy(),
        ts=data[:, 2].copy(),
    )


def record_to_subtrajectory(raw: bytes) -> SubTrajectory:
    """Rebuild an archived sub-trajectory record, one validated object at a time."""
    rec = decode_record(raw)
    start = max(rec.parent_start, 0)
    end = max(rec.parent_end, start + 1)
    traj = Trajectory(rec.obj_id, f"{rec.traj_id}#{start}-{end}", rec.xs, rec.ys, rec.ts)
    return SubTrajectory((rec.obj_id, rec.traj_id), start, end, traj)


def kill_slot(page: Page, slot: int) -> None:
    """Zero one slot entry: a dead slot, as the readers find it on disk."""
    _U32.pack_into(page.data, 4 + 4 * slot, 0)


def delete_record(heap: HeapFile, rid: RID) -> None:
    """Kill the slot of every chunk of the record whose head is at ``rid``."""
    cursor: RID | None = rid
    while cursor is not None:
        page = heap.buffer_pool.get_page(cursor.page_no)
        _, nxt = _decode_chunk(page.read(cursor.slot))
        kill_slot(page, cursor.slot)
        heap.buffer_pool.mark_dirty(cursor.page_no)
        cursor = nxt


def page_records_per_slot(page: Page) -> list[tuple[int, bytes]]:
    """All live ``(slot, record)`` pairs of the page, one slot at a time."""
    out = []
    for slot in range(page.num_slots):
        offset, length = page._read_slot(slot)
        if offset:
            directory_end = 4 + 4 * page.num_slots
            if offset < directory_end or offset + length > PAGE_SIZE:
                raise ValueError(
                    f"slot {slot} is corrupt: record [{offset}, {offset + length}) "
                    f"lies outside the valid data area [{directory_end}, {PAGE_SIZE})"
                )
            out.append((slot, bytes(page.data[offset : offset + length])))
    return out


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


def scan_records_per_slot(heapfile: HeapFile):
    """Iterate over complete records (head chunks reassembled)."""
    pool = heapfile.buffer_pool
    payloads: dict[RID, bytes] = {}
    successors: dict[RID, RID | None] = {}
    for page_no in range(pool.num_pages()):
        for slot, raw in page_records_per_slot(pool.get_page(page_no)):
            rid = RID(page_no, slot)
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


def count_records_per_slot(heapfile: HeapFile) -> int:
    """Number of records :func:`scan_records_per_slot` would yield, from headers only."""
    pool = heapfile.buffer_pool
    successors: dict[RID, RID | None] = {}
    for page_no in range(pool.num_pages()):
        for slot, raw in page_records_per_slot(pool.get_page(page_no)):
            successors[RID(page_no, slot)] = _next_chunk(raw[:_CHUNK_HEADER])
    continuations = {nxt for nxt in successors.values() if nxt is not None}
    heads = 0
    for rid, nxt in successors.items():
        if rid in continuations:
            continue
        if nxt is not None:
            _chain(rid, successors)
        heads += 1
    return heads


def read_records_per_slot(heapfiles) -> tuple[list[bytes], list[int]]:
    """A sub-chunk's records, file by file: ``(records, bounds)``.

    File ``k``'s records are ``records[bounds[k] : bounds[k + 1]]``; the
    first damaged file raises what its per-slot walk raises.
    """
    records: list[bytes] = []
    bounds = [0]
    for heapfile in heapfiles:
        records.extend(raw for _rid, raw in scan_records_per_slot(heapfile))
        bounds.append(len(records))
    return records, bounds


def read_partitions_per_record(heapfiles) -> tuple[list[TrajectoryRecord], list[int]]:
    """A sub-chunk's records decoded one at a time: ``(records, bounds)``.

    Every file is scanned (:func:`read_records_per_slot`) before any record
    is decoded; each record is then decoded and checked as the trajectory or
    sub-trajectory it stores, in order.
    """
    raws, bounds = read_records_per_slot(heapfiles)
    records = []
    for raw in raws:
        record = decode_record(raw)
        if record.is_subtrajectory:
            record_to_subtrajectory(raw)
        else:
            record.to_trajectory()
        records.append(record)
    return records, bounds
