"""T-OPTICS: time-focused clustering of whole trajectories.

Nanni & Pedreschi (2006) run the OPTICS density ordering over *entire*
trajectories using a time-aware trajectory distance (the average synchronous
Euclidean distance).  The implementation below follows the classic OPTICS
algorithm (core distance / reachability distance / ordered seeds) and then
extracts clusters by cutting the reachability plot at ``eps_cut``.

Because the unit of clustering is the whole trajectory, an object that
follows flow A for half of its lifespan and flow B afterwards cannot be split
— the structural limitation sub-trajectory clustering removes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.hermes.distances import spatiotemporal_distance
from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory
from repro.s2t.result import Cluster, ClusteringResult

__all__ = ["TOpticsParams", "TOpticsClustering"]


@dataclass(frozen=True)
class TOpticsParams:
    """OPTICS parameters.

    ``max_eps`` bounds the neighbourhood search (``None`` = unbounded),
    ``min_pts`` is the core-point density threshold, and ``eps_cut`` is the
    reachability threshold used to extract flat clusters (``None`` resolves
    to 5 % of the spatial diagonal).
    """

    max_eps: float | None = None
    min_pts: int = 3
    eps_cut: float | None = None

    def __post_init__(self) -> None:
        # ``max_eps`` may be infinite: that is the unbounded search.
        if self.max_eps is not None and not self.max_eps > 0:
            raise ValueError(f"max_eps must be positive, got {self.max_eps!r}")
        if self.eps_cut is not None and not (math.isfinite(self.eps_cut) and self.eps_cut > 0):
            raise ValueError(f"eps_cut must be finite and positive, got {self.eps_cut!r}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be at least 1, got {self.min_pts!r}")

    def resolved(self, mod: MOD) -> "TOpticsParams":
        bbox = mod.bbox
        diag = (bbox.dx**2 + bbox.dy**2) ** 0.5
        return TOpticsParams(
            max_eps=self.max_eps if self.max_eps is not None else math.inf,
            min_pts=self.min_pts,
            eps_cut=self.eps_cut if self.eps_cut is not None else 0.05 * diag,
        )


class TOpticsClustering:
    """OPTICS ordering + reachability cut over whole trajectories."""

    def __init__(self, params: TOpticsParams | None = None) -> None:
        self.params = params or TOpticsParams()

    def fit(self, mod: MOD) -> ClusteringResult:
        if len(mod) == 0:
            return ClusteringResult(method="t-optics", clusters=[], outliers=[], params=self.params)
        start_all = time.perf_counter()
        params = self.params.resolved(mod)
        assert params.max_eps is not None and params.eps_cut is not None

        trajectories = mod.trajectories()
        n = len(trajectories)

        # Pairwise time-aware distance matrix.
        t0 = time.perf_counter()
        dist = np.full((n, n), math.inf)
        np.fill_diagonal(dist, 0.0)
        for i in range(n):
            for j in range(i + 1, n):
                d = spatiotemporal_distance(trajectories[i], trajectories[j], max_samples=64)
                dist[i, j] = dist[j, i] = d
        distance_time = time.perf_counter() - t0

        # OPTICS ordering.
        t0 = time.perf_counter()
        order, reachability = self._optics_order(dist, params)
        optics_time = time.perf_counter() - t0

        # Flat clusters: consecutive ordered points with reachability <= eps_cut.
        labels = [-1] * n
        cluster_id = -1
        for pos, idx in enumerate(order):
            if reachability[idx] > params.eps_cut:
                # Start a new cluster only if this point is a core point for the cut.
                neighbours = np.sum(dist[idx] <= params.eps_cut)
                if neighbours >= params.min_pts:
                    cluster_id += 1
                    labels[idx] = cluster_id
            else:
                labels[idx] = cluster_id if cluster_id >= 0 else -1

        clusters: dict[int, list[int]] = {}
        noise: list[int] = []
        for idx, label in enumerate(labels):
            if label < 0:
                noise.append(idx)
            else:
                clusters.setdefault(label, []).append(idx)

        def whole(idx: int) -> SubTrajectory:
            traj = trajectories[idx]
            return traj.subtrajectory(0, traj.num_points - 1)

        result_clusters: list[Cluster] = []
        for new_id, indices in enumerate(sorted(clusters.values(), key=len, reverse=True)):
            members = [whole(i) for i in indices]
            # Medoid under the precomputed distance matrix.
            sub = dist[np.ix_(indices, indices)]
            finite = np.where(np.isfinite(sub), sub, np.nanmax(sub[np.isfinite(sub)]) if np.isfinite(sub).any() else 0.0)
            medoid_local = int(np.argmin(finite.sum(axis=1)))
            result_clusters.append(
                Cluster(
                    cluster_id=new_id,
                    representative=members[medoid_local],
                    members=members,
                )
            )
        outliers = [whole(i) for i in noise]

        return ClusteringResult(
            method="t-optics",
            clusters=result_clusters,
            outliers=outliers,
            params=params,
            timings={
                "distances": distance_time,
                "optics": optics_time,
                "extraction": time.perf_counter() - start_all - distance_time - optics_time,
            },
        )

    # -- internals ------------------------------------------------------------

    def _optics_order(
        self, dist: np.ndarray, params: TOpticsParams
    ) -> tuple[list[int], np.ndarray]:
        """Classic OPTICS: returns the visit order and reachability distances."""
        assert params.max_eps is not None
        n = dist.shape[0]
        reachability = np.full(n, math.inf)
        processed = np.zeros(n, dtype=bool)
        order: list[int] = []

        def core_distance(idx: int) -> float:
            neighbours = np.sort(dist[idx][dist[idx] <= params.max_eps])
            # neighbours includes the point itself (distance 0).
            if len(neighbours) < params.min_pts:
                return math.inf
            return float(neighbours[params.min_pts - 1])

        for start in range(n):
            if processed[start]:
                continue
            processed[start] = True
            order.append(start)
            seeds: dict[int, float] = {}
            self._update_seeds(start, dist, core_distance(start), processed, seeds, params)
            while seeds:
                current = min(seeds, key=seeds.get)
                reachability[current] = seeds.pop(current)
                processed[current] = True
                order.append(current)
                self._update_seeds(
                    current, dist, core_distance(current), processed, seeds, params
                )
        return order, reachability

    @staticmethod
    def _update_seeds(
        idx: int,
        dist: np.ndarray,
        core_dist: float,
        processed: np.ndarray,
        seeds: dict[int, float],
        params: TOpticsParams,
    ) -> None:
        if math.isinf(core_dist):
            return
        assert params.max_eps is not None
        for other in range(dist.shape[0]):
            if processed[other] or dist[idx, other] > params.max_eps:
                continue
            new_reach = max(core_dist, float(dist[idx, other]))
            if other not in seeds or new_reach < seeds[other]:
                seeds[other] = new_reach
