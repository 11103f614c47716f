"""The Moving Object Database (MOD) container.

A :class:`MOD` is the in-memory collection of trajectories an analysis runs
against — the Python analogue of a Hermes@PostgreSQL dataset.  It offers the
query operand the clustering modules need (temporal range restriction)
and is the unit loaded into the storage
engine and the ReTraTree.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.hermes.trajectory import Trajectory
from repro.hermes.types import BoxST, Period

__all__ = ["MOD"]


class MOD:
    """A named collection of trajectories.

    Trajectories are keyed by ``(obj_id, traj_id)``; inserting a duplicate key
    raises :class:`ValueError` so accidental double-loads are caught early.
    """

    def __init__(self, name: str = "mod", trajectories: Iterable[Trajectory] = ()) -> None:
        self.name = name
        self._trajs: dict[tuple[str, str], Trajectory] = {}
        for traj in trajectories:
            self.add(traj)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._trajs)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._trajs.values())

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._trajs

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MOD(name={self.name!r}, trajectories={len(self)})"

    # -- mutation -------------------------------------------------------------

    def add(self, traj: Trajectory) -> None:
        """Insert a trajectory; raises on duplicate ``(obj_id, traj_id)``."""
        if traj.key in self._trajs:
            raise ValueError(f"duplicate trajectory key {traj.key!r} in MOD {self.name!r}")
        self._trajs[traj.key] = traj

    def remove(self, key: tuple[str, str]) -> Trajectory:
        """Remove and return the trajectory with the given key."""
        return self._trajs.pop(key)

    # -- access ---------------------------------------------------------------

    def get(self, key: tuple[str, str]) -> Trajectory:
        """Return the trajectory with the given ``(obj_id, traj_id)`` key."""
        return self._trajs[key]

    def trajectories(self) -> list[Trajectory]:
        """All trajectories as a list (insertion order)."""
        return list(self._trajs.values())

    def keys(self) -> list[tuple[str, str]]:
        """All trajectory keys."""
        return list(self._trajs.keys())

    def object_ids(self) -> list[str]:
        """Distinct moving-object identifiers."""
        return sorted({k[0] for k in self._trajs})

    # -- aggregate properties ---------------------------------------------------

    @property
    def period(self) -> Period:
        """Temporal extent of the whole MOD."""
        if not self._trajs:
            raise ValueError("empty MOD has no period")
        tmin = min(t.period.tmin for t in self)
        tmax = max(t.period.tmax for t in self)
        return Period(tmin, tmax)

    @property
    def bbox(self) -> BoxST:
        """3D bounding box of the whole MOD."""
        if not self._trajs:
            raise ValueError("empty MOD has no bounding box")
        boxes = [t.bbox for t in self]
        out = boxes[0]
        for box in boxes[1:]:
            out = out.union(box)
        return out

    @property
    def total_points(self) -> int:
        """Total number of samples across all trajectories."""
        return sum(t.num_points for t in self)

    # -- query operands ----------------------------------------------------------

    def temporal_range(self, period: Period) -> "MOD":
        """Restrict every trajectory to ``period`` (the at-period operand).

        This is the "(i) extract the relevant records using a temporal range
        query" step of the QuT baseline in the paper's scenario 2.
        """
        out = MOD(name=f"{self.name}@[{period.tmin:.0f},{period.tmax:.0f}]")
        for traj in self:
            restricted = traj.slice_period(period)
            if restricted is not None:
                out.add(restricted)
        return out

