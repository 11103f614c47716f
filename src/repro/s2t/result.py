"""Result model shared by S2T, QuT and the baselines.

A clustering result is a set of :class:`Cluster` objects (each with a
representative sub-trajectory and its members) plus the outlier
sub-trajectories.  The per-sample assignment view
(:meth:`ClusteringResult.point_assignments`) maps results back onto raw MOD
samples, which is what the VA module and the quality metrics consume.

Members are frame rows
----------------------
A cluster's members and a result's outliers are always :class:`Members`:
an immutable sequence of :class:`~repro.hermes.trajectory.SubTrajectory`
stored as row ranges of :class:`~repro.hermes.frame.TrajectoryRows` — the
sub-trajectory frame S2T's segmentation gathers, the batch a QuT window
decodes, or the slice of it a partially covered sub-chunk restricts to.
Concatenating them (QuT's merge and ``gamma`` filter, the partition merge
of a pooled S2T) concatenates the ranges.  What the SQL answer reads —
:attr:`Cluster.size`, :attr:`Cluster.period`, :meth:`Cluster.object_ids`
— comes from the frames' ``tmins`` / ``tmaxs`` columns and the rows' parent
keys, so an answer builds no object per member.  The objects are built
once, the first time a caller iterates, indexes or compares the members,
and kept.  A list given to :class:`Cluster` or :class:`ClusteringResult`
(the baselines, hand-made results) is wrapped: its objects are kept as
they are, over a frame of their trajectories.  A result pickles as its
frame columns, whatever was built.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.hermes.frame import TrajectoryRows
from repro.hermes.trajectory import SubTrajectory
from repro.hermes.types import Period

__all__ = ["Cluster", "ClusteringResult", "Members"]

# One stretch of members: rows ``index`` of one TrajectoryRows, in that order.
_Run = tuple[TrajectoryRows, np.ndarray]


class Members(Sequence[SubTrajectory]):
    """An immutable sequence of sub-trajectories held as frame rows (module docstring).

    ``Members(items)`` wraps built sub-trajectories (and shares another
    :class:`Members`); :meth:`of_rows`, :meth:`concat` and :meth:`take`
    build one from rows without building any object.
    """

    __slots__ = ("_runs", "_len", "_items")

    def __init__(self, items: Iterable[SubTrajectory] = ()) -> None:
        if isinstance(items, Members):
            self._runs, self._len, self._items = items._runs, items._len, items._items
            return
        built = list(items)
        runs = [(TrajectoryRows.of(built), np.arange(len(built), dtype=np.intp))] if built else []
        self._init(runs, built)

    def _init(self, runs: Iterable[_Run], items: list[SubTrajectory] | None) -> None:
        self._runs: tuple[_Run, ...] = tuple(run for run in runs if len(run[1]))
        self._len = sum(len(index) for _rows, index in self._runs)
        self._items = items

    @classmethod
    def _over(cls, runs: Iterable[_Run]) -> "Members":
        members = cls.__new__(cls)
        members._init(runs, None)
        return members

    @classmethod
    def of_rows(cls, rows: TrajectoryRows, index: Sequence[int] | None = None) -> "Members":
        """Rows ``index`` of ``rows`` (all of them when omitted), in that order."""
        if index is None:
            index = range(len(rows))
        return cls._over([(rows, np.asarray(index, dtype=np.intp))])

    @classmethod
    def concat(cls, parts: Iterable[Sequence[SubTrajectory]]) -> "Members":
        """``parts`` one after another; a part that is a list is wrapped first."""
        wrapped = [part if isinstance(part, Members) else cls(part) for part in parts]
        return cls._over([run for part in wrapped for run in part._runs])

    def take(self, positions: Sequence[int]) -> "Members":
        """The members at ``positions``, in that order, without building any."""
        positions = np.asarray(positions, dtype=np.intp)
        if len(self._runs) == 1:  # one frame's rows, as S2T's pieces are: no splitting
            rows, index = self._runs[0]
            return Members._over([(rows, index[positions])])
        ends = np.cumsum([len(index) for _rows, index in self._runs], dtype=np.intp)
        run_of = np.searchsorted(ends, positions, side="right")
        runs = []
        for chunk in np.split(np.arange(positions.size), np.flatnonzero(np.diff(run_of)) + 1):
            if chunk.size:
                run = int(run_of[chunk[0]])
                rows, index = self._runs[run]
                runs.append((rows, index[positions[chunk] - (ends[run] - len(index))]))
        return Members._over(runs)

    # -- column reads: no object built ----------------------------------------

    def __len__(self) -> int:
        return self._len

    def parent_keys(self) -> list[tuple[str, str]]:
        """Each member's ``parent_key``, in order."""
        return [rows.parent_keys[i] for rows, index in self._runs for i in index.tolist()]

    def bounds(self) -> list[tuple[int, int]]:
        """Each member's ``(start_idx, end_idx)`` in its parent, in order."""
        return [rows.bounds[i] for rows, index in self._runs for i in index.tolist()]

    def object_ids(self) -> set[str]:
        """Distinct moving objects among the members."""
        return {obj_id for obj_id, _traj_id in self.parent_keys()}

    def period(self) -> Period:
        """Temporal extent covered by the members; an empty set has none."""
        if not self._runs:
            raise ValueError("an empty member set covers no period")
        return Period(
            min(float(rows.frame.tmins[index].min()) for rows, index in self._runs),
            max(float(rows.frame.tmaxs[index].max()) for rows, index in self._runs),
        )

    # -- the objects: built once per row, on first use -------------------------

    def _built(self) -> list[SubTrajectory]:
        if self._items is None:
            self._items = [
                rows.subtrajectory(i) for rows, index in self._runs for i in index.tolist()
            ]
        return self._items

    def __getitem__(self, position):
        return self._built()[position]

    def __iter__(self) -> Iterator[SubTrajectory]:
        return iter(self._built())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Members, list)):
            return self._built() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Sequence[SubTrajectory]) -> "Members":
        return Members.concat([self, other])

    def __radd__(self, other: Sequence[SubTrajectory]) -> "Members":
        return Members.concat([other, self])

    def __repr__(self) -> str:
        return f"Members({self._built()!r})"

    def __reduce__(self) -> tuple:
        # The runs (frame columns), never the built objects.
        return (Members._over, (self._runs,))


@dataclass
class Cluster:
    """A group of sub-trajectories formed around a representative."""

    cluster_id: int
    representative: SubTrajectory
    members: Members = field(default_factory=Members)

    def __post_init__(self) -> None:
        if not isinstance(self.members, Members):
            self.members = Members(self.members)

    @property
    def size(self) -> int:
        """Number of members (the representative counts as a member)."""
        return len(self.members)

    @property
    def period(self) -> Period:
        """Temporal extent covered by the cluster's members."""
        return self.members.period()

    def object_ids(self) -> set[str]:
        """Distinct moving objects contributing to the cluster."""
        return self.members.object_ids()


@dataclass
class ClusteringResult:
    """Outcome of a (sub-)trajectory clustering run."""

    method: str
    clusters: list[Cluster]
    outliers: Members
    params: object | None = None
    timings: dict[str, float] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.outliers, Members):
            self.outliers = Members(self.outliers)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def num_outliers(self) -> int:
        return len(self.outliers)

    @property
    def num_clustered(self) -> int:
        """Total sub-trajectories placed in clusters."""
        return sum(c.size for c in self.clusters)

    @property
    def total_runtime(self) -> float:
        """Sum of the recorded phase timings (seconds)."""
        return sum(self.timings.values())

    def cluster_by_id(self, cluster_id: int) -> Cluster:
        """Return the cluster with the given id."""
        for cluster in self.clusters:
            if cluster.cluster_id == cluster_id:
                return cluster
        raise KeyError(f"no cluster with id {cluster_id}")

    def all_subtrajectories(self) -> list[tuple[SubTrajectory, int | None]]:
        """Every sub-trajectory with its cluster id (``None`` for outliers)."""
        out: list[tuple[SubTrajectory, int | None]] = []
        for cluster in self.clusters:
            out.extend((member, cluster.cluster_id) for member in cluster.members)
        out.extend((sub, None) for sub in self.outliers)
        return out

    def point_assignments(self) -> dict[tuple[str, str], dict[int, int | None]]:
        """Per-sample cluster labels.

        Returns ``{traj_key: {sample_index: cluster_id or None}}``.  Samples
        not covered by any sub-trajectory of the result are absent.  When
        sub-trajectories overlap at cut samples, cluster membership wins over
        outlier status and lower cluster ids win ties (deterministic).  The
        labels are read from the members' parent keys and bounds; no
        sub-trajectory is built.
        """
        out: dict[tuple[str, str], dict[int, int | None]] = {}
        labelled = [
            (cluster.cluster_id, cluster.members)
            for cluster in sorted(self.clusters, key=lambda cluster: cluster.cluster_id)
        ]
        labelled.append((None, self.outliers))
        for cluster_id, members in labelled:
            for parent_key, (start, end) in zip(members.parent_keys(), members.bounds()):
                per_traj = out.setdefault(parent_key, {})
                for idx in range(start, end + 1):
                    if idx not in per_traj:
                        per_traj[idx] = cluster_id
        return out

    def summary(self) -> dict[str, object]:
        """Compact description used by reports and the SQL interface."""
        return {
            "method": self.method,
            "clusters": self.num_clusters,
            "outliers": self.num_outliers,
            "clustered_subtrajectories": self.num_clustered,
            "cluster_sizes": sorted((c.size for c in self.clusters), reverse=True),
            "runtime_s": round(self.total_runtime, 6),
        }
