"""Convoy discovery (Jeung et al., VLDB 2008).

A convoy is a group of at least ``m`` objects that are density-connected
(DBSCAN with radius ``eps``) at every one of at least ``k`` consecutive time
snapshots.  The implementation samples the MOD at a regular snapshot
interval, clusters each snapshot, and extends candidate convoys snapshot by
snapshot (the CMC — coherent moving cluster — scheme).

Convoy discovery is the canonical "co-movement pattern" family the paper
mentions; its hard-to-tune ``m``/``k``/``eps`` parameters are part of the
motivation for S2T's parameter-light design.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import Period
from repro.qut.retratree import subtrajectory_from_slice
from repro.s2t.result import Cluster, ClusteringResult

__all__ = ["ConvoyParams", "ConvoyDiscovery", "Convoy"]


@dataclass(frozen=True)
class ConvoyParams:
    """Convoy discovery parameters.

    ``eps``: DBSCAN radius per snapshot (``None`` resolves to 5 % of the
    spatial diagonal); ``min_objects`` (m): minimum convoy size;
    ``min_duration_snapshots`` (k): minimum consecutive snapshots;
    ``snapshot_interval``: sampling step (``None`` resolves to 1/50 of the
    MOD lifespan).
    """

    eps: float | None = None
    min_objects: int = 3
    min_duration_snapshots: int = 3
    snapshot_interval: float | None = None

    def __post_init__(self) -> None:
        for name in ("eps", "snapshot_interval"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("min_objects", "min_duration_snapshots"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")

    def resolved(self, mod: MOD) -> "ConvoyParams":
        bbox = mod.bbox
        diag = (bbox.dx**2 + bbox.dy**2) ** 0.5
        period = mod.period
        return ConvoyParams(
            eps=self.eps if self.eps is not None else 0.05 * diag,
            min_objects=self.min_objects,
            min_duration_snapshots=self.min_duration_snapshots,
            snapshot_interval=(
                self.snapshot_interval
                if self.snapshot_interval is not None
                else period.duration / 50.0
            ),
        )


@dataclass
class Convoy:
    """A discovered convoy: the object set and its lifetime."""

    objects: frozenset[tuple[str, str]]
    start_time: float
    end_time: float

    @property
    def period(self) -> Period:
        return Period(self.start_time, self.end_time)


class ConvoyDiscovery:
    """Coherent-moving-cluster style convoy discovery."""

    def __init__(self, params: ConvoyParams | None = None) -> None:
        self.params = params or ConvoyParams()

    def fit(self, mod: MOD) -> ClusteringResult:
        if len(mod) == 0:
            return ClusteringResult(method="convoy", clusters=[], outliers=[], params=self.params)
        start_all = time.perf_counter()
        params = self.params.resolved(mod)
        assert params.eps is not None and params.snapshot_interval is not None

        period = mod.period
        n_snapshots = max(2, int(period.duration / params.snapshot_interval) + 1)
        snapshot_times = np.linspace(period.tmin, period.tmax, n_snapshots)
        trajectories = mod.trajectories()

        convoys: list[Convoy] = []
        # Candidates: (object set, start snapshot index, last snapshot index).
        candidates: list[tuple[frozenset, int, int]] = []

        for snap_idx, t in enumerate(snapshot_times):
            alive = [traj for traj in trajectories if traj.period.contains(t)]
            groups = self._snapshot_clusters(alive, float(t), params)

            new_candidates: list[tuple[frozenset, int, int]] = []
            matched_groups = [False] * len(groups)
            for objects, start_idx, _last_idx in candidates:
                extended = False
                for g_idx, group in enumerate(groups):
                    common = objects & group
                    if len(common) >= params.min_objects:
                        new_candidates.append((frozenset(common), start_idx, snap_idx))
                        matched_groups[g_idx] = True
                        extended = True
                        break
                if not extended:
                    # The candidate ends at the previous snapshot.
                    length = _last_idx - start_idx + 1
                    if length >= params.min_duration_snapshots:
                        convoys.append(
                            Convoy(
                                objects=objects,
                                start_time=float(snapshot_times[start_idx]),
                                end_time=float(snapshot_times[_last_idx]),
                            )
                        )
            for g_idx, group in enumerate(groups):
                if not matched_groups[g_idx] and len(group) >= params.min_objects:
                    new_candidates.append((frozenset(group), snap_idx, snap_idx))
            candidates = new_candidates

        # Close candidates still open at the end.
        for objects, start_idx, last_idx in candidates:
            length = last_idx - start_idx + 1
            if length >= params.min_duration_snapshots:
                convoys.append(
                    Convoy(
                        objects=objects,
                        start_time=float(snapshot_times[start_idx]),
                        end_time=float(snapshot_times[last_idx]),
                    )
                )

        result = self._to_result(mod, convoys, params)
        result.timings["total"] = time.perf_counter() - start_all
        return result

    # -- internals --------------------------------------------------------------

    def _snapshot_clusters(
        self, alive: list[Trajectory], t: float, params: ConvoyParams
    ) -> list[set[tuple[str, str]]]:
        """DBSCAN over object positions at instant ``t``; returns object-key groups."""
        assert params.eps is not None
        if not alive:
            return []
        positions = np.array([[*traj.position_at(t).as_tuple()[:2]] for traj in alive])
        n = len(alive)
        labels = [-2] * n

        dists = np.hypot(
            positions[:, None, 0] - positions[None, :, 0],
            positions[:, None, 1] - positions[None, :, 1],
        )

        def neighbours(i: int) -> list[int]:
            return [j for j in range(n) if j != i and dists[i, j] <= params.eps]

        cluster_id = 0
        for i in range(n):
            if labels[i] != -2:
                continue
            nbrs = neighbours(i)
            if len(nbrs) + 1 < params.min_objects:
                labels[i] = -1
                continue
            labels[i] = cluster_id
            queue = list(nbrs)
            while queue:
                j = queue.pop()
                if labels[j] == -1:
                    labels[j] = cluster_id
                if labels[j] != -2:
                    continue
                labels[j] = cluster_id
                j_nbrs = neighbours(j)
                if len(j_nbrs) + 1 >= params.min_objects:
                    queue.extend(j_nbrs)
            cluster_id += 1

        groups: dict[int, set[tuple[str, str]]] = {}
        for idx, label in enumerate(labels):
            if label >= 0:
                groups.setdefault(label, set()).add(alive[idx].key)
        return list(groups.values())

    def _to_result(
        self, mod: MOD, convoys: list[Convoy], params: ConvoyParams
    ) -> ClusteringResult:
        """Map convoys onto the shared result model.

        Each convoy becomes a cluster whose members are the participating
        objects' movements restricted to the convoy lifetime.
        """
        clusters: list[Cluster] = []
        covered: set[tuple[str, str]] = set()
        for cluster_id, convoy in enumerate(
            sorted(convoys, key=lambda c: len(c.objects), reverse=True)
        ):
            members: list[SubTrajectory] = []
            for key in sorted(convoy.objects):
                traj = mod.get(key)
                piece = traj.slice_period(convoy.period)
                if piece is None:
                    continue
                members.append(subtrajectory_from_slice(traj, piece))
                covered.add(key)
            if len(members) >= params.min_objects:
                representative = max(members, key=lambda m: m.traj.duration)
                clusters.append(
                    Cluster(cluster_id=cluster_id, representative=representative, members=members)
                )
        outliers = [
            traj.subtrajectory(0, traj.num_points - 1)
            for traj in mod
            if traj.key not in covered
        ]
        for new_id, cluster in enumerate(clusters):
            cluster.cluster_id = new_id
        result = ClusteringResult(
            method="convoy", clusters=clusters, outliers=outliers, params=params, timings={}
        )
        result.extras = {"num_convoys": len(convoys)}
        return result
