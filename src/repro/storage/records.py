"""Serialisation of (sub-)trajectory records.

A partition stores one record per (sub-)trajectory.  The binary layout is:

```
uint16 obj_id_len | obj_id utf-8 | uint16 traj_id_len | traj_id utf-8 |
int32 parent_start | int32 parent_end | uint32 n | n * (f64 x, f64 y, f64 t)
```

``parent_start``/``parent_end`` are the sample bounds inside the parent
trajectory for sub-trajectory records, or ``-1`` for whole trajectories.

:func:`encode_record` writes one record; :func:`read_partitions` is the one
reader.  It takes every heap file a read needs — a QuT sub-chunk's member
partitions in entry order, then its unclustered partition — and reads their
pages as one image (:func:`~repro.storage.heapfile.read_records`, which
reads every slot directory and chunk flag as arrays).  The records'
headers are parsed as arrays too: both identifier lengths, the bounds and
the sample count of every record at once, each record's layout checked
against its length in one pass.  Only the two identifiers per record are
decoded in Python; the sample bytes are joined once, a slice per record,
and each column copied once into one :class:`~repro.hermes.frame.MODFrame`,
which checks the trajectory invariant once per batch.
:func:`decode_records` parses a list of record bytes the same way (the
representatives a reopened tree fetches by RID).

The batch is a :class:`~repro.hermes.frame.TrajectoryRows`: the frame plus
each record's stored parent key and bounds.  Nothing per record is built at
decode time: QuT's cluster members are row ranges of the batch
(:class:`~repro.s2t.result.Members`), and a record becomes a
:class:`~repro.hermes.trajectory.SubTrajectory` over a view of the frame's
columns only when a caller iterates them.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

import numpy as np

from repro.hermes.frame import MODFrame, TrajectoryRows
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.storage.heapfile import HeapFile, read_records

__all__ = ["encode_record", "decode_records", "read_partitions"]

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


def _truncated(offset: int, count: int, what: str, size: int) -> ValueError:
    return ValueError(
        f"truncated record: {what} needs bytes [{offset}, {offset + count}) "
        f"but only {size} are stored"
    )


def _gather(data: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes at each of ``at``, one row each; clamped to ``data``.

    A position past the end reads the last byte: the header checks refuse
    every record such a read belongs to before its value is used.
    """
    index = np.minimum(at[:, None] + np.arange(width), max(data.size - 1, 0))
    return data[index] if data.size else np.zeros(index.shape, dtype=np.uint8)


def _u16(data: np.ndarray, at: np.ndarray) -> np.ndarray:
    return _gather(data, at, _U16.size).view("<u2")[:, 0].astype(np.int64)


def _decode(image: bytes, starts: np.ndarray, lengths: np.ndarray) -> TrajectoryRows:
    """Records ``image[starts[i] : starts[i] + lengths[i]]`` as one batch.

    Every header is parsed as arrays: the two identifier lengths, the bounds
    and the sample count of all records are gathered at once, and every
    record's layout is checked against its length in one pass.  Only the
    two identifiers of each record are decoded one by one.  The samples are
    joined once, a slice of each record, and split into the columns of one
    :class:`~repro.hermes.frame.MODFrame`.  The first record that does not
    hold what its header says raises the ``truncated record`` diagnostic of
    its first missing field, after the identifiers of every earlier record
    (and its own complete ones) are decoded — the order a record-at-a-time
    parser meets them in.
    """
    data = np.frombuffer(image, dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64)
    sizes = np.asarray(lengths, dtype=np.int64)
    obj_len = _u16(data, starts)
    traj_at = _U16.size + obj_len  # offsets within each record
    traj_len = _u16(data, starts + traj_at)
    header_at = traj_at + _U16.size + traj_len
    header = _gather(data, starts + header_at, _BOUNDS.size)
    parent_bounds = header.view("<i4")[:, :2]
    counts = header.view("<u4")[:, 2].astype(np.int64)
    samples_at = header_at + _BOUNDS.size
    nbytes = _SAMPLE_BYTES * counts
    # Every field lies past the one before it, so a record whose samples end
    # inside it holds every field; the first that does not is named below.
    damaged = samples_at + nbytes > sizes
    valid = int(np.argmax(damaged)) if damaged.any() else len(sizes)

    obj_from = starts + _U16.size
    obj_to = starts + traj_at
    traj_to = starts + header_at
    sample_from = starts + samples_at
    # Both identifiers of every whole record, in record order: obj, traj, obj, ...
    id_spans = np.stack([obj_from, obj_to, obj_to + _U16.size, traj_to], axis=1)[:valid]
    ids = [image[lo:hi].decode("utf-8") for lo, hi in id_spans.reshape(-1, 2).tolist()]
    parent_keys = list(zip(ids[0::2], ids[1::2]))
    bounds = list(zip(parent_bounds[:valid, 0].tolist(), parent_bounds[:valid, 1].tolist()))
    keys = [
        key if start < 0 else (key[0], f"{key[1]}#{start}-{end}")
        for key, (start, end) in zip(parent_keys, bounds)
    ]
    view = memoryview(image)
    samples = [
        view[lo:hi] for lo, hi in zip(sample_from[:valid].tolist(), (sample_from + nbytes)[:valid].tolist())
    ]
    if valid < len(sizes):
        i = valid
        at_traj, at_header, at_samples = int(traj_at[i]), int(header_at[i]), int(samples_at[i])
        fields = [
            (0, _U16.size, "identifier length"),
            (_U16.size, int(obj_len[i]), "identifier"),
            (at_traj, _U16.size, "identifier length"),
            (at_traj + _U16.size, int(traj_len[i]), "identifier"),
            (at_header, _BOUNDS.size, "record header"),
            (at_samples, int(nbytes[i]), f"{int(counts[i])} samples"),
        ]
        field = next(k for k, (offset, count, _what) in enumerate(fields) if offset + count > sizes[i])
        # A record-at-a-time parser decodes each identifier it has whole.
        if field > 1:
            image[obj_from[i] : obj_to[i]].decode("utf-8")
        if field > 3:
            image[obj_to[i] + _U16.size : traj_to[i]].decode("utf-8")
        raise _truncated(*fields[field], int(sizes[i]))
    offsets = np.zeros(valid + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    columns = np.frombuffer(b"".join(samples), dtype="<f8").reshape(-1, 3)
    frame = MODFrame.from_payload(
        (keys, columns[:, 0].copy(), columns[:, 1].copy(), columns[:, 2].copy(), offsets)
    )
    return TrajectoryRows(frame, parent_keys, bounds)


def decode_records(raws: Sequence[bytes]) -> TrajectoryRows:
    """Deserialise records produced by :func:`encode_record`, as one batch.

    The records are joined into one image and parsed like a heap read
    (:func:`read_partitions`).  Row ``i`` is record ``i``: a whole
    trajectory's row is keyed ``(obj_id, traj_id)``, a sub-trajectory's
    ``(obj_id, "<traj_id>#<start>-<end>")``, and the stored ``(obj_id,
    traj_id)`` and ``(parent_start, parent_end)`` (``(-1, -1)`` for a whole
    trajectory) are the batch's ``parent_keys`` and ``bounds``.

    Raises :class:`ValueError` with a ``truncated record`` diagnostic when a
    record's bytes end before the layout says they should — the signature
    of a torn write or a corrupt slot — and the frame's
    :class:`ValueError` naming the first record that is not a valid
    trajectory (fewer than two samples, non-increasing or non-finite
    values).
    """
    lengths = np.fromiter(map(len, raws), dtype=np.int64, count=len(raws))
    return _decode(b"".join(raws), np.cumsum(lengths) - lengths, lengths)


def read_partitions(heapfiles: Sequence[HeapFile]) -> tuple[TrajectoryRows, np.ndarray]:
    """Every record of ``heapfiles`` decoded as one batch, and each file's rows.

    The one partition reader: the files' records are read as spans of one
    image (:func:`~repro.storage.heapfile.read_records`) and parsed
    together into one checked frame.  Returns ``(batch, bounds)``: file
    ``k``'s records are rows ``bounds[k]:bounds[k + 1]``, in scan order.
    Heap damage raises before any record is parsed, with the texts
    :func:`~repro.storage.heapfile.read_records` gives; then record damage,
    as :func:`decode_records` raises it.
    """
    records = read_records(heapfiles)
    return _decode(records.image, records.starts, records.lengths), records.bounds
