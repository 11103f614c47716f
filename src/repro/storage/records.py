"""Serialisation of (sub-)trajectory records.

A partition stores one record per (sub-)trajectory.  The binary layout is:

```
uint16 obj_id_len | obj_id utf-8 | uint16 traj_id_len | traj_id utf-8 |
int32 parent_start | int32 parent_end | uint32 n | n * (f64 x, f64 y, f64 t)
```

``parent_start``/``parent_end`` are the sample bounds inside the parent
trajectory for sub-trajectory records, or ``-1`` for whole trajectories.

:func:`encode_record` writes one record; :func:`decode_records` is the one
parser.  It reads a whole partition's records into one
:class:`~repro.hermes.frame.MODFrame` — the headers one by one, the sample
bytes joined once, each column copied once — so the trajectory invariant is
checked once per batch by the frame, and the trajectories handed out are
views of its columns.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory, Trajectory

__all__ = ["RecordBatch", "encode_record", "decode_records"]

_U16 = struct.Struct("<H")
_I32 = struct.Struct("<i")
_U32 = struct.Struct("<I")
# parent_start, parent_end, n: the fixed header after the two identifiers.
_BOUNDS = struct.Struct("<iiI")
_SAMPLE_BYTES = 24


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 65535:
        raise ValueError("identifier too long to serialise")
    return _U16.pack(len(raw)) + raw


def encode_record(item: Trajectory | SubTrajectory) -> bytes:
    """Serialise a trajectory or sub-trajectory into bytes."""
    if isinstance(item, SubTrajectory):
        traj = item.traj
        obj_id, traj_id = item.parent_key
        parent_start, parent_end = item.start_idx, item.end_idx
    else:
        traj = item
        obj_id, traj_id = item.obj_id, item.traj_id
        parent_start = parent_end = -1
    parts = [
        _pack_str(obj_id),
        _pack_str(traj_id),
        _I32.pack(parent_start),
        _I32.pack(parent_end),
        _U32.pack(traj.num_points),
        np.column_stack([traj.xs, traj.ys, traj.ts]).astype("<f8").tobytes(),
    ]
    return b"".join(parts)


@dataclass(frozen=True)
class RecordBatch:
    """The decoded form of a sequence of stored records, row ``i`` = record ``i``.

    Attributes
    ----------
    frame:
        The samples, checked against the trajectory invariant.  A whole
        trajectory's row is keyed ``(obj_id, traj_id)``, a sub-trajectory's
        ``(obj_id, "<traj_id>#<start>-<end>")`` — the id
        :meth:`SubTrajectory.from_trajectory
        <repro.hermes.trajectory.SubTrajectory.from_trajectory>` gives it.
    parent_keys:
        The stored ``(obj_id, traj_id)`` of each record.
    bounds:
        The stored ``(parent_start, parent_end)`` of each record; ``(-1, -1)``
        for whole trajectories.
    """

    frame: MODFrame
    parent_keys: list[tuple[str, str]]
    bounds: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.parent_keys)

    def trajectories(self) -> list[Trajectory]:
        """Each record as a :class:`Trajectory` view of the frame's columns."""
        view = self.frame.trajectory_of
        return [view(row) for row in range(len(self))]

    def subtrajectories(self) -> list[SubTrajectory]:
        """Each sub-trajectory record as a :class:`SubTrajectory` over a frame view."""
        view = self.frame.trajectory_of
        return [
            SubTrajectory(parent, start, end, view(row))
            for row, (parent, (start, end)) in enumerate(zip(self.parent_keys, self.bounds))
        ]


def _truncated(offset: int, count: int, what: str, size: int) -> ValueError:
    return ValueError(
        f"truncated record: {what} needs bytes [{offset}, {offset + count}) "
        f"but only {size} are stored"
    )


def _read_id(raw: bytes, offset: int) -> tuple[str, int]:
    """The identifier starting at ``offset`` and the offset just past it."""
    size = len(raw)
    if offset + _U16.size > size:
        raise _truncated(offset, _U16.size, "identifier length", size)
    (length,) = _U16.unpack_from(raw, offset)
    offset += _U16.size
    if offset + length > size:
        raise _truncated(offset, length, "identifier", size)
    return raw[offset : offset + length].decode("utf-8"), offset + length


def decode_records(raws: Sequence[bytes]) -> RecordBatch:
    """Deserialise records produced by :func:`encode_record`, as one batch.

    Each header is parsed in turn; the sample bytes of all records are
    joined once and split into the ``x`` / ``y`` / ``t`` columns of one
    :class:`~repro.hermes.frame.MODFrame`, which checks every row.

    Raises :class:`ValueError` with a ``truncated record`` diagnostic when a
    record's bytes end before the layout says they should — the signature
    of a torn write or a corrupt slot — and the frame's
    :class:`ValueError` naming the first record that is not a valid
    trajectory (fewer than two samples, non-increasing or non-finite
    values).
    """
    keys: list[tuple[str, str]] = []
    parent_keys: list[tuple[str, str]] = []
    bounds: list[tuple[int, int]] = []
    samples: list[memoryview] = []
    counts: list[int] = []
    for raw in raws:
        obj_id, offset = _read_id(raw, 0)
        traj_id, offset = _read_id(raw, offset)
        if offset + _BOUNDS.size > len(raw):
            raise _truncated(offset, _BOUNDS.size, "record header", len(raw))
        start, end, n = _BOUNDS.unpack_from(raw, offset)
        offset += _BOUNDS.size
        nbytes = _SAMPLE_BYTES * n
        if offset + nbytes > len(raw):
            raise _truncated(offset, nbytes, f"{n} samples", len(raw))
        samples.append(memoryview(raw)[offset : offset + nbytes])
        counts.append(n)
        parent_keys.append((obj_id, traj_id))
        bounds.append((start, end))
        keys.append((obj_id, traj_id) if start < 0 else (obj_id, f"{traj_id}#{start}-{end}"))
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, dtype=np.intp, out=offsets[1:])
    data = np.frombuffer(b"".join(samples), dtype="<f8").reshape(-1, 3)
    frame = MODFrame.from_payload(
        (keys, data[:, 0].copy(), data[:, 1].copy(), data[:, 2].copy(), offsets)
    )
    return RecordBatch(frame, parent_keys, bounds)
