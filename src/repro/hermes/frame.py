"""Columnar trajectory storage: the batched counterpart of :class:`~repro.hermes.mod.MOD`.

A :class:`MODFrame` is an immutable column-store snapshot of a set of
trajectories: every sample of every trajectory lives in three concatenated
``xs`` / ``ys`` / ``ts`` arrays, with a per-trajectory ``offsets`` table
delimiting the blocks, plus per-trajectory *lifespan* (``tmins`` / ``tmaxs``)
and *bounding-box* tables.  It is built once per MOD (an ``O(total samples)``
concatenation) and then serves the hot paths of S2T-Clustering —
synchronised interpolation and synchronous distances — **batched across
trajectories** instead of pair-at-a-time.

The key kernel is :meth:`MODFrame.positions_at_batch`: it linearly
interpolates *many* trajectories (each with its own sample times) onto a
query time grid in a single vectorised pass.  Per-trajectory binary searches
are folded into **one** :func:`numpy.searchsorted` call by shifting each
trajectory's timestamps into a private disjoint band (``t - t0 + row * step``
with ``step`` larger than the global time span): within a band the timestamps
stay sorted, and the bands are ordered by row, so the concatenated shifted
array is globally sorted and a single binary search locates the bracketing
samples of every (trajectory, instant) pair at once.

This is the engine behind ``voting_strategy="batched"``
(:mod:`repro.s2t.voting`) and
:func:`repro.hermes.distances.spatiotemporal_distance_batch`.

Frame lifecycle
---------------
The frame is the engine's *canonical* dataset representation; every phase of
S2T-Clustering, the ReTraTree bulk load and the baselines read it instead of
rebuilding their own columnar snapshots:

* **Construction** — :meth:`MODFrame.from_mod` snapshots a whole MOD (one
  ``O(total samples)`` concatenation, row order = MOD insertion order);
  :meth:`MODFrame.from_trajectories` does the same for an arbitrary
  trajectory sequence.  Derived state (lifespan/bbox tables, the key → row
  map and the banded timestamp column) is computed once at construction.
* **Caching** — :class:`~repro.core.engine.HermesEngine` keeps a *frame
  catalog*: ``engine.frame(name)`` builds the dataset's frame on first use
  and hands the cached instance to every consumer
  (``engine.s2t`` / ``engine.range_then_cluster`` / ``engine.retratree``),
  so a dataset's frame is constructed at most once per load.
* **Invalidation** — the catalog entry is dropped whenever the dataset
  changes: ``engine.load_mod`` (which SQL ``INSERT`` re-materialisation goes
  through) and ``engine.drop`` both evict it; the next consumer rebuilds.
* **Slicing** — :meth:`MODFrame.select_rows` restricts a frame to a
  trajectory subset (zero-copy column views for contiguous row ranges) and
  :meth:`MODFrame.slice_period` restricts it to a time period with
  interpolated boundary samples, mirroring
  :meth:`~repro.hermes.trajectory.Trajectory.slice_period` exactly.  The
  partition-parallel scheduler (:mod:`repro.core.parallel`) and the
  ReTraTree bulk load derive their per-partition frames this way instead of
  re-concatenating trajectory objects.
* **Serialization** — frames pickle as their raw columns plus keys
  (:meth:`MODFrame.to_payload`); derived state is rebuilt on load.  This is
  the cheap path that ships partition frames to worker processes.
* **Appending** — :meth:`MODFrame.extend` grows a frame *in place* with a
  batch of new trajectories (the ingestion delta-concat path): the new
  rows' columns are concatenated after the existing ones in one vectorised
  pass, so the engine's cached catalog entry absorbs an append without the
  per-trajectory Python loop of a full :meth:`from_mod` rebuild.  This is
  the only mutation a frame ever undergoes; rows are append-only and
  existing row indices never move.

The trajectory invariant
------------------------
Every row of a frame is a valid trajectory: at least two samples, strictly
increasing ``t`` and finite ``x`` / ``y`` / ``t``
(:func:`~repro.hermes.trajectory.sample_defect`).  The frame checks it once,
vectorised over all rows, in ``_init_columns`` — the one place every
construction path goes through (``__init__``, ``_from_columns``,
:meth:`~MODFrame.from_payload`, :meth:`~MODFrame.from_shm`, slicing, the
full-recompute branch of :meth:`~MODFrame.extend`) — and raises
:class:`ValueError` naming the first failing row.  A stored partition
therefore loads as one checked frame (:func:`repro.storage.records.decode_records`).

Because a frame's rows are known valid, :meth:`MODFrame.trajectory_of` and
:func:`subtrajectory_from_slice` hand out :class:`Trajectory` *views* of
validated columns without re-running the per-object check.  That unchecked
construction is ``_trajectory_view``, private to this module; the public
``Trajectory(...)`` constructor always validates.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.hermes.trajectory import SubTrajectory, Trajectory, sample_defect
from repro.hermes.types import _EPS, BoxST, Period

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hermes.mod import MOD

__all__ = ["MODFrame", "subtrajectory_from_slice"]

# Cap on the number of (trajectory, instant) cells materialised per batch;
# larger requests are transparently chunked by the callers' helpers.
MAX_BATCH_CELLS = 1 << 21


def _trajectory_view(
    obj_id: str, traj_id: str, xs: np.ndarray, ys: np.ndarray, ts: np.ndarray
) -> Trajectory:
    """A :class:`Trajectory` over columns already known to hold the invariant.

    The one unchecked construction: callers pass slices of a checked frame
    or the columns of an existing trajectory, never raw input.
    """
    traj = Trajectory.__new__(Trajectory)
    traj.obj_id, traj.traj_id = obj_id, traj_id
    traj.xs, traj.ys, traj.ts = xs, ys, ts
    return traj


def subtrajectory_from_slice(parent: Trajectory, piece: Trajectory) -> SubTrajectory:
    """Wrap a temporally sliced piece of ``parent`` as a :class:`SubTrajectory`.

    The sample bounds are the parent samples closest to the piece's first and
    last instants (slicing interpolates new endpoints, so exact sample
    identity is not guaranteed).  ``piece`` is a trajectory, so its columns
    already hold the invariant; the sub-trajectory is a view of them under
    the ``<traj_id>#<start>-<end>`` id.
    """
    start_idx = int(np.searchsorted(parent.ts, piece.ts[0], side="left"))
    end_idx = int(np.searchsorted(parent.ts, piece.ts[-1], side="right")) - 1
    start_idx = min(max(start_idx, 0), parent.num_points - 2)
    end_idx = min(max(end_idx, start_idx + 1), parent.num_points - 1)
    sub_traj = _trajectory_view(
        parent.obj_id,
        f"{parent.traj_id}#{start_idx}-{end_idx}",
        piece.xs,
        piece.ys,
        piece.ts,
    )
    return SubTrajectory(parent.key, start_idx, end_idx, sub_traj)


def _check_rows(
    keys: Sequence[tuple[str, str]],
    xs: np.ndarray,
    ys: np.ndarray,
    ts: np.ndarray,
    offsets: np.ndarray,
) -> None:
    """Raise :class:`ValueError` for the first row breaking the trajectory invariant.

    The vectorised pass accepts a valid frame without a per-row loop: within
    a row every ``t`` step must rise (a NaN never does; the steps across row
    boundaries are masked out), and every ``x`` / ``y`` plus each row's first
    and last ``t`` must be finite.  Only a frame that fails it is walked row
    by row, so the error names the first defective row with exactly the
    reason ``Trajectory(...)`` would give for it.
    """
    n = len(keys)
    if not (len(offsets) == n + 1 and len(xs) == len(ys) == len(ts) == int(offsets[-1])):
        raise ValueError(
            f"frame columns do not match its offsets: {n} rows, offsets of "
            f"length {len(offsets)}, columns of length {len(xs)} / {len(ys)} / {len(ts)}"
        )
    if (np.diff(offsets) >= 2).all():
        rising = ts[1:] > ts[:-1]
        rising[offsets[1:-1] - 1] = True
        if (
            rising.all()
            and np.isfinite(xs).all()
            and np.isfinite(ys).all()
            and np.isfinite(ts[offsets[:-1]]).all()
            and np.isfinite(ts[offsets[1:] - 1]).all()
        ):
            return
    for row in range(n):
        lo, hi = offsets[row], offsets[row + 1]
        defect = sample_defect(xs[lo:hi], ys[lo:hi], ts[lo:hi])
        if defect is not None:
            raise ValueError(f"trajectory {keys[row]!r}: {defect}")


class MODFrame:
    """Append-only columnar snapshot of a trajectory collection.

    Existing rows never change; :meth:`extend` is the one mutation and only
    appends rows at the end (see the module docstring's lifecycle notes).

    Attributes
    ----------
    keys:
        ``(obj_id, traj_id)`` of row ``i`` — the row ↔ trajectory mapping.
    xs, ys, ts:
        Concatenated sample coordinates of all trajectories.
    offsets:
        ``(n + 1,)`` int array; row ``i`` owns samples
        ``offsets[i]:offsets[i + 1]``.
    tmins, tmaxs:
        Per-row lifespan table.
    xmins, ymins, xmaxs, ymaxs:
        Per-row spatial bounding-box table.
    """

    __slots__ = (
        "keys",
        "xs",
        "ys",
        "ts",
        "offsets",
        "tmins",
        "tmaxs",
        "xmins",
        "ymins",
        "xmaxs",
        "ymaxs",
        "_key_to_row",
        "_t0",
        "_band_step",
        "_banded_ts",
    )

    # Number of whole-MOD snapshots taken so far (see :meth:`from_mod`).
    # Tests assert through this counter that a dataset's frame is built at
    # most once per ``fit`` when the engine's frame catalog is warm.
    from_mod_calls: int = 0

    def __init__(self, trajectories: Sequence[Trajectory]) -> None:
        keys: list[tuple[str, str]] = [t.key for t in trajectories]
        n = len(trajectories)
        lengths = np.fromiter(
            (t.num_points for t in trajectories), dtype=np.intp, count=n
        )
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])

        xs = np.empty(total, dtype=float)
        ys = np.empty(total, dtype=float)
        ts = np.empty(total, dtype=float)
        for i, traj in enumerate(trajectories):
            lo, hi = offsets[i], offsets[i + 1]
            xs[lo:hi] = traj.xs
            ys[lo:hi] = traj.ys
            ts[lo:hi] = traj.ts
        self._init_columns(keys, xs, ys, ts, offsets)

    def _init_columns(
        self,
        keys: list[tuple[str, str]],
        xs: np.ndarray,
        ys: np.ndarray,
        ts: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        """Check the trajectory invariant, then populate all slots from raw columns.

        Derived tables are recomputed.  Raises :class:`ValueError` naming
        the first row that is not a valid trajectory.
        """
        _check_rows(keys, xs, ys, ts, offsets)
        self.keys = keys
        self.xs = xs
        self.ys = ys
        self.ts = ts
        self.offsets = offsets
        n = len(keys)

        if n:
            self.tmins = self.ts[self.offsets[:-1]].copy()
            self.tmaxs = self.ts[self.offsets[1:] - 1].copy()
            self.xmins = np.minimum.reduceat(self.xs, self.offsets[:-1])
            self.xmaxs = np.maximum.reduceat(self.xs, self.offsets[:-1])
            self.ymins = np.minimum.reduceat(self.ys, self.offsets[:-1])
            self.ymaxs = np.maximum.reduceat(self.ys, self.offsets[:-1])
        else:
            empty = np.empty(0, dtype=float)
            self.tmins = self.tmaxs = empty
            self.xmins = self.xmaxs = self.ymins = self.ymaxs = empty

        self._key_to_row = {key: i for i, key in enumerate(self.keys)}

        # Disjoint time bands for the single-searchsorted trick (see module
        # docstring).  The band step must exceed the global time span so that
        # row i's shifted timestamps all precede row i+1's.  The 2x headroom
        # lets :meth:`extend` absorb forward-growing appends with an O(delta)
        # banded-column update until the span outgrows it.
        self._t0 = float(self.tmins.min()) if n else 0.0
        span = float(self.tmaxs.max()) - self._t0 if n else 0.0
        self._band_step = 2.0 * span + 1.0
        row_of_sample = np.repeat(np.arange(n, dtype=np.intp), np.diff(self.offsets))
        self._banded_ts = (self.ts - self._t0) + row_of_sample * self._band_step

    # -- construction --------------------------------------------------------

    @classmethod
    def from_mod(cls, mod: "MOD") -> "MODFrame":
        """Columnar snapshot of a whole MOD (row order = MOD insertion order)."""
        MODFrame.from_mod_calls += 1
        return cls(mod.trajectories())

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Trajectory]) -> "MODFrame":
        """Columnar snapshot of an arbitrary trajectory sequence."""
        return cls(list(trajectories))

    @classmethod
    def _from_columns(
        cls,
        keys: list[tuple[str, str]],
        xs: np.ndarray,
        ys: np.ndarray,
        ts: np.ndarray,
        offsets: np.ndarray,
    ) -> "MODFrame":
        """Build a frame directly from raw columns (no Trajectory objects)."""
        frame = cls.__new__(cls)
        frame._init_columns(keys, xs, ys, ts, offsets)
        return frame

    # -- serialization --------------------------------------------------------

    def to_payload(self) -> tuple:
        """The frame's raw columns — the cheap wire format.

        Only ``keys`` and the four column arrays are shipped; derived state
        (lifespan/bbox tables, key map, banded timestamps) is rebuilt on
        :meth:`from_payload`.  This is what makes sending partition frames to
        :class:`concurrent.futures.ProcessPoolExecutor` workers cheap.
        """
        return (self.keys, self.xs, self.ys, self.ts, self.offsets)

    @classmethod
    def from_payload(cls, payload: tuple) -> "MODFrame":
        """Rebuild a frame from :meth:`to_payload` output."""
        return cls._from_columns(*payload)

    def __reduce__(self) -> tuple:
        return (MODFrame.from_payload, (self.to_payload(),))

    def to_shm(self, arena=None) -> tuple[str, dict]:
        """Publish the frame's columns into one shared-memory segment.

        The zero-copy wire format: the four column arrays plus the UTF-8
        JSON-encoded ``keys`` list are packed into a single
        ``multiprocessing.shared_memory`` segment, laid out as
        ``[offsets | xs | ys | ts | keys_json]`` (every numeric section is
        8-byte aligned by construction).  The return value — the segment
        *name* plus a tiny metadata dict — is all that has to cross a
        process boundary; :meth:`from_shm` reattaches the columns as views
        without copying them.

        The segment is registered with ``arena`` (default: the process-wide
        :func:`repro.hermes.shm.default_arena`), which owns closing and
        unlinking it.  Raises
        :class:`~repro.hermes.shm.ShmTransportError` when shared memory is
        unavailable; callers fall back to the pickle wire format.
        """
        from repro.hermes.shm import default_arena

        import json

        keys_blob = json.dumps(self.keys).encode("utf-8")
        n = len(self.keys)
        total = int(self.offsets[-1]) if n else 0
        offsets64 = np.ascontiguousarray(self.offsets, dtype=np.int64)
        off_bytes = offsets64.nbytes
        col_bytes = total * 8
        nbytes = off_bytes + 3 * col_bytes + len(keys_blob)

        shm = (arena if arena is not None else default_arena()).create(nbytes)
        cursor = 0
        np.frombuffer(shm.buf, dtype=np.int64, count=n + 1, offset=cursor)[:] = offsets64
        cursor += off_bytes
        for column in (self.xs, self.ys, self.ts):
            np.frombuffer(shm.buf, dtype=np.float64, count=total, offset=cursor)[:] = column
            cursor += col_bytes
        shm.buf[cursor : cursor + len(keys_blob)] = keys_blob

        meta = {"rows": n, "points": total, "keys_bytes": len(keys_blob)}
        return shm.name, meta

    @classmethod
    def from_shm(cls, name: str, meta: dict, arena=None) -> "MODFrame":
        """Attach a frame published by :meth:`to_shm`, without copying columns.

        The column arrays are ``numpy`` views directly into the shared
        segment, so the frame stays valid only while the segment is mapped —
        i.e. until the owning :class:`~repro.hermes.shm.ShmArena` releases
        ``name``.  Derived state (lifespan/bbox tables, key map, banded
        timestamps) is recomputed locally, same as :meth:`from_payload`.

        Raises :class:`~repro.hermes.shm.ShmTransportError` when the segment
        cannot be attached; callers route that to the pickle fallback.
        """
        from repro.hermes.shm import default_arena

        import json

        shm = (arena if arena is not None else default_arena()).attach(name)
        n = int(meta["rows"])
        total = int(meta["points"])
        keys_bytes = int(meta["keys_bytes"])

        cursor = 0
        offsets = np.frombuffer(shm.buf, dtype=np.int64, count=n + 1, offset=cursor)
        cursor += offsets.nbytes
        columns = []
        for _ in range(3):
            columns.append(
                np.frombuffer(shm.buf, dtype=np.float64, count=total, offset=cursor)
            )
            cursor += total * 8
        keys_blob = bytes(shm.buf[cursor : cursor + keys_bytes])
        keys = [tuple(key) for key in json.loads(keys_blob.decode("utf-8"))]
        xs, ys, ts = columns
        return cls._from_columns(keys, xs, ys, ts, offsets.astype(np.intp, copy=False))

    # -- appending ------------------------------------------------------------

    def extend(self, trajectories: Iterable[Trajectory] | "MODFrame") -> int:
        """Append a batch of new trajectories to this frame, in place.

        This is the ingestion delta-concat path: the batch (an iterable of
        trajectories, or an already-built delta :class:`MODFrame`) is
        snapshot into delta columns and concatenated after the existing
        ones in one vectorised pass.  Derived state is updated in
        ``O(delta)`` in the common case — the delta's lifespan/bbox tables
        concatenate onto the existing ones, the key map gains only the new
        rows, and the banded timestamp column extends in place as long as
        the delta starts at or after the frame's time origin and the grown
        span still fits under the band step (which is built with 2x
        headroom); a batch that breaks either condition falls back to one
        full derived-state recompute that re-establishes the headroom.
        Existing rows keep their indices — consumers holding views into the
        pre-extend columns keep valid (pre-append) snapshots, because the
        old arrays are replaced, never mutated.

        Parameters
        ----------
        trajectories:
            The new rows, in append order.  Keys must not collide with
            existing rows (or repeat within the batch).

        Returns
        -------
        The number of rows appended (0 for an empty batch, which leaves the
        frame untouched).

        Raises
        ------
        ValueError
            If a batch key duplicates an existing row's key or another
            batch key.
        """
        delta = (
            trajectories
            if isinstance(trajectories, MODFrame)
            else MODFrame.from_trajectories(trajectories)
        )
        if len(delta) == 0:
            return 0
        batch_seen: set[tuple[str, str]] = set()
        for key in delta.keys:
            if key in self._key_to_row or key in batch_seen:
                raise ValueError(f"cannot extend frame: duplicate trajectory key {key!r}")
            batch_seen.add(key)
        n_old = len(self.keys)
        keys = self.keys + list(delta.keys)
        xs = np.concatenate([self.xs, delta.xs])
        ys = np.concatenate([self.ys, delta.ys])
        ts = np.concatenate([self.ts, delta.ts])
        offsets = np.concatenate([self.offsets, delta.offsets[1:] + self.offsets[-1]])
        new_span = (
            max(float(self.tmaxs.max()), float(delta.tmaxs.max())) - self._t0
            if n_old
            else 0.0
        )
        if (
            n_old == 0
            or float(delta.tmins.min()) < self._t0
            or new_span >= self._band_step - 0.5
        ):
            # Banding invalidated (new origin, or span outgrew the band
            # headroom): one full recompute re-establishes the invariants.
            self._init_columns(keys, xs, ys, ts, offsets)
            return len(delta)
        # O(delta) path: extend the derived tables instead of recomputing
        # them over every row.
        for i, key in enumerate(delta.keys):
            self._key_to_row[key] = n_old + i
        self.keys = keys
        self.xs, self.ys, self.ts, self.offsets = xs, ys, ts, offsets
        self.tmins = np.concatenate([self.tmins, delta.tmins])
        self.tmaxs = np.concatenate([self.tmaxs, delta.tmaxs])
        self.xmins = np.concatenate([self.xmins, delta.xmins])
        self.xmaxs = np.concatenate([self.xmaxs, delta.xmaxs])
        self.ymins = np.concatenate([self.ymins, delta.ymins])
        self.ymaxs = np.concatenate([self.ymaxs, delta.ymaxs])
        delta_rows = np.repeat(
            np.arange(n_old, n_old + len(delta), dtype=np.intp),
            np.diff(delta.offsets),
        )
        self._banded_ts = np.concatenate(
            [self._banded_ts, (delta.ts - self._t0) + delta_rows * self._band_step]
        )
        return len(delta)

    # -- row access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def total_points(self) -> int:
        """Total number of samples across all rows."""
        return int(self.offsets[-1])

    def row_of(self, key: tuple[str, str]) -> int:
        """Row index of trajectory ``key``; raises :class:`KeyError` if absent."""
        return self._key_to_row[key]

    def maybe_row_of(self, key: tuple[str, str]) -> int | None:
        """Row index of trajectory ``key``, or ``None`` if absent."""
        return self._key_to_row.get(key)

    def num_points_of(self, row: int) -> int:
        """Sample count of row ``row``."""
        return int(self.offsets[row + 1] - self.offsets[row])

    def ts_of(self, row: int) -> np.ndarray:
        """Timestamps of row ``row`` (a view into the column)."""
        return self.ts[self.offsets[row] : self.offsets[row + 1]]

    def xs_of(self, row: int) -> np.ndarray:
        """X coordinates of row ``row`` (a view into the column)."""
        return self.xs[self.offsets[row] : self.offsets[row + 1]]

    def ys_of(self, row: int) -> np.ndarray:
        """Y coordinates of row ``row`` (a view into the column)."""
        return self.ys[self.offsets[row] : self.offsets[row + 1]]

    def period_of(self, row: int) -> Period:
        """Lifespan of row ``row``."""
        return Period(float(self.tmins[row]), float(self.tmaxs[row]))

    def trajectory_of(self, row: int) -> Trajectory:
        """Row ``row`` as a :class:`Trajectory` (zero-copy column views).

        The row was checked when the frame was built, so the view is not
        validated again.
        """
        obj_id, traj_id = self.keys[row]
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return _trajectory_view(
            obj_id, traj_id, self.xs[lo:hi], self.ys[lo:hi], self.ts[lo:hi]
        )

    def to_mod(self, name: str = "frame") -> "MOD":
        """Materialise the frame as a :class:`~repro.hermes.mod.MOD`.

        The trajectories share the frame's columns (views, no copies); this
        is how parallel workers rebuild a MOD from a shipped partition frame.
        """
        from repro.hermes.mod import MOD

        return MOD(name=name, trajectories=(self.trajectory_of(r) for r in range(len(self))))

    # -- slicing ---------------------------------------------------------------

    def select_rows(self, rows: np.ndarray | Sequence[int]) -> "MODFrame":
        """Frame restricted to ``rows`` (in the given order).

        A contiguous ascending row range keeps zero-copy views into the
        parent's columns; any other selection gathers the row blocks into
        fresh arrays.
        """
        rows = np.asarray(rows, dtype=np.intp)
        keys = [self.keys[r] for r in rows]
        lengths = self.offsets[rows + 1] - self.offsets[rows]
        offsets = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        if rows.size and np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
            lo, hi = self.offsets[rows[0]], self.offsets[rows[-1] + 1]
            return MODFrame._from_columns(
                keys, self.xs[lo:hi], self.ys[lo:hi], self.ts[lo:hi], offsets
            )
        sample_idx = np.concatenate(
            [np.arange(self.offsets[r], self.offsets[r + 1]) for r in rows]
        ) if rows.size else np.empty(0, dtype=np.intp)
        return MODFrame._from_columns(
            keys, self.xs[sample_idx], self.ys[sample_idx], self.ts[sample_idx], offsets
        )

    def slice_period(self, period: Period) -> "MODFrame":
        """Frame restricted to ``period`` (Hermes ``atPeriod``, batched).

        Row-for-row equivalent to
        :meth:`~repro.hermes.trajectory.Trajectory.slice_period`: boundary
        samples are interpolated at the period bounds, duplicate boundary
        timestamps are dropped, and rows whose restriction degenerates (no
        overlap, or fewer than two samples) are omitted.  The surviving rows
        keep their keys and relative order, so
        ``frame.slice_period(w).to_mod()`` equals ``mod.temporal_range(w)``.
        """
        return self.slice_period_rows(period)[0]

    def slice_period_rows(self, period: Period) -> tuple["MODFrame", np.ndarray]:
        """:meth:`slice_period` plus the surviving rows' parent indices.

        Returns ``(sliced, rows)`` where ``sliced`` is exactly what
        :meth:`slice_period` would return and ``rows[i]`` is the index *in
        this frame* of the trajectory that became ``sliced`` row ``i``.  The
        mapping is what lets callers that hold per-row side data (QuT's
        archived partition members) restrict a whole batch in one pass and
        still attribute each restricted piece to its source — keys alone
        cannot do that when two rows share a key.

        The assembly is fully vectorised: every surviving row's output is
        ``[interpolated start] + interior samples + [interpolated end]``
        with the interior strictly inside ``(lo, hi)``, so per-row outputs
        are strictly increasing by construction (the reason
        :meth:`~repro.hermes.trajectory.Trajectory.slice_period`'s duplicate
        guard never fires for rows with positive common lifespan) and the
        three output columns can be scattered in one pass instead of
        per-row concatenations.
        """
        n = len(self)
        if n == 0:
            return MODFrame([]), np.empty(0, dtype=np.intp)
        lo, hi = self.lifespan_overlap(period.tmin, period.tmax)
        cand = np.flatnonzero(hi - lo > 0)
        if cand.size == 0:
            return MODFrame([]), np.empty(0, dtype=np.intp)
        lo_c, hi_c = lo[cand], hi[cand]
        # Interpolated boundary positions of every candidate row, batched.
        bounds = np.stack([lo_c, hi_c], axis=1)
        bx, by = self.positions_at_batch(cand, bounds)

        # Flat view of the candidate rows' samples: sample_idx[j] is a column
        # index, row_of[j] the (candidate-local) row owning it.
        starts = self.offsets[cand]
        counts = self.offsets[cand + 1] - starts
        row_of = np.repeat(np.arange(cand.size, dtype=np.intp), counts)
        first_flat = np.cumsum(counts) - counts
        sample_idx = (
            np.arange(int(counts.sum()), dtype=np.intp)
            - first_flat[row_of]
            + starts[row_of]
        )
        ts_c = self.ts[sample_idx]
        inside = (ts_c > lo_c[row_of]) & (ts_c < hi_c[row_of])

        # Output layout: per row, 1 boundary + interior + 1 boundary.
        interior_counts = np.bincount(row_of[inside], minlength=cand.size)
        offsets_out = np.zeros(cand.size + 1, dtype=np.intp)
        np.cumsum(interior_counts + 2, out=offsets_out[1:])
        total = int(offsets_out[-1])
        out_xs = np.empty(total)
        out_ys = np.empty(total)
        out_ts = np.empty(total)
        head, tail = offsets_out[:-1], offsets_out[1:] - 1
        out_ts[head], out_ts[tail] = lo_c, hi_c
        out_xs[head], out_xs[tail] = bx[:, 0], bx[:, 1]
        out_ys[head], out_ys[tail] = by[:, 0], by[:, 1]
        keep_idx = sample_idx[inside]
        keep_row = row_of[inside]
        # Rank of each interior sample within its row (keep_row is sorted).
        rank = np.arange(keep_idx.size, dtype=np.intp) - (
            np.cumsum(interior_counts) - interior_counts
        )[keep_row]
        dest = head[keep_row] + 1 + rank
        out_ts[dest] = self.ts[keep_idx]
        out_xs[dest] = self.xs[keep_idx]
        out_ys[dest] = self.ys[keep_idx]

        sliced = MODFrame._from_columns(
            [self.keys[row] for row in cand], out_xs, out_ys, out_ts, offsets_out
        )
        return sliced, cand

    def bbox_of(self, row: int) -> BoxST:
        """3D bounding box of row ``row``."""
        return BoxST(
            float(self.xmins[row]),
            float(self.ymins[row]),
            float(self.tmins[row]),
            float(self.xmaxs[row]),
            float(self.ymaxs[row]),
            float(self.tmaxs[row]),
        )

    # -- batched kernels ------------------------------------------------------

    def positions_at_batch(
        self, rows: np.ndarray | Sequence[int], grid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated positions of many rows at many instants, in one pass.

        Parameters
        ----------
        rows:
            ``(V,)`` row indices to interpolate.
        grid:
            Either a shared ``(P,)`` time grid evaluated for every row, or a
            ``(V, P)`` array giving each row its own grid.

        Returns
        -------
        ``(X, Y)`` — two ``(V, P)`` arrays.  Instants outside a row's lifespan
        are clamped to its endpoints, matching
        :meth:`repro.hermes.trajectory.Trajectory.positions_at`.
        """
        rows = np.asarray(rows, dtype=np.intp)
        grid = np.asarray(grid, dtype=float)
        if grid.ndim == 1:
            grid = np.broadcast_to(grid, (len(rows), grid.shape[0]))
        elif grid.shape[0] != len(rows):
            raise ValueError(
                f"grid has {grid.shape[0]} rows but {len(rows)} rows were requested"
            )
        if rows.size == 0 or grid.size == 0:
            shape = (len(rows), grid.shape[1] if grid.ndim == 2 else 0)
            return np.empty(shape), np.empty(shape)

        # Clamp into each row's lifespan (np.interp endpoint semantics).
        q = np.clip(grid, self.tmins[rows, None], self.tmaxs[rows, None])

        # One global binary search over the banded timestamp column.
        banded_q = (q - self._t0) + rows[:, None] * self._band_step
        idx = np.searchsorted(self._banded_ts, banded_q.ravel(), side="right") - 1
        idx = idx.reshape(q.shape)

        # Bracket indices must stay inside each row's block (every row has at
        # least two samples, so offsets[r+1] - 2 >= offsets[r]).
        lo = self.offsets[rows][:, None]
        hi = self.offsets[rows + 1][:, None] - 2
        np.clip(idx, lo, hi, out=idx)

        t_lo = self.ts[idx]
        # The banded key ``(q - t0) + row * step`` carries fewer low bits
        # than ``q`` itself, so an instant an ulp *below* a knot can round
        # onto the knot's band value and bracket one segment late (the
        # rounding is monotone, so never early).  Re-check against the true
        # timestamps and step those brackets back: the bracket is then
        # exactly ``searchsorted(row ts, q, "right") - 1``, the one
        # :meth:`Trajectory.position_at` interpolates in.
        late = t_lo > q
        if late.any():
            idx -= late
            t_lo = self.ts[idx]
        dt = self.ts[idx + 1] - t_lo
        # dt > 0 always (timestamps are strictly increasing per trajectory).
        w = np.clip((q - t_lo) / dt, 0.0, 1.0)
        x_lo = self.xs[idx]
        y_lo = self.ys[idx]
        return (
            x_lo + w * (self.xs[idx + 1] - x_lo),
            y_lo + w * (self.ys[idx + 1] - y_lo),
        )

    def lifespan_overlap(
        self, tmin: float, tmax: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row common lifespan with ``[tmin, tmax]``.

        Returns ``(lo, hi)`` arrays; a row overlaps with positive duration
        exactly when ``hi - lo > 0``.
        """
        return np.maximum(self.tmins, tmin), np.minimum(self.tmaxs, tmax)

    def overlaps_period(self, period: Period, tolerance: float = 0.0) -> np.ndarray:
        """Per-row boolean: does the row's ``tolerance``-expanded lifespan overlap?

        The vectorised counterpart of
        ``row_period.expand(tolerance).overlaps(period)``, sharing the
        :class:`~repro.hermes.types.Period` epsilon.
        """
        return (self.tmins - tolerance <= period.tmax + _EPS) & (
            period.tmin <= self.tmaxs + tolerance + _EPS
        )
