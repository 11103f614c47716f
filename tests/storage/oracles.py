"""The per-record decode path the batch decoder is pinned against.

``repro.storage.records.decode_records`` parses a whole partition into one
checked frame.  The record-at-a-time parser it replaced — one
``TrajectoryRecord`` per record, then one validated ``Trajectory`` (or
``SubTrajectory``) object each — survives here as the equivalence oracle:
same bytes in, same ids, bounds and samples out, and the same
``ValueError`` message for every corruption.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.hermes.trajectory import SubTrajectory, Trajectory

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
