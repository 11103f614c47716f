"""GreedyClustering and outlier detection (the C and O of SaCO).

Each representative seeds one cluster.  Every other sub-trajectory joins the
closest representative — under the time-aware trajectory distance — provided
that distance is at most ``eps``; otherwise it is an outlier.  Clusters that
end up with fewer than ``min_cluster_support`` members are dissolved and
their members become outliers, matching the role of the ``γ`` parameter in
the QuT SQL signature.

The sub-trajectories are snapshotted once into a columnar
:class:`~repro.hermes.frame.MODFrame` (row ``i`` = sub-trajectory ``i``,
addressed by position; :meth:`S2TClustering.fit
<repro.s2t.pipeline.S2TClustering.fit>` shares the frame it built for
sampling).  :func:`greedy_clustering` then issues one
:func:`spatiotemporal_distance_batch` call **per representative** against
that frame and keeps a running ``(best representative, best distance)`` per
sub-trajectory, so memory stays O(sub-trajectories) — no representatives x
sub-trajectories distance matrix is materialised.
:func:`assign_to_representatives_batch` is the one-sub-trajectory-at-a-time
counterpart against a *representative* frame, used by the ReTraTree's
insertion path.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.hermes.distances import spatiotemporal_distance, spatiotemporal_distance_batch
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory
from repro.s2t.params import S2TParams
from repro.s2t.result import Cluster, ClusteringResult

__all__ = [
    "greedy_clustering",
    "assign_to_representatives",
    "assign_to_representatives_batch",
]


def assign_to_representatives(
    sub: SubTrajectory,
    representatives: list[SubTrajectory],
    eps: float,
    temporal_tolerance: float = 0.0,
) -> tuple[int | None, float]:
    """Index of the closest representative within ``eps``, and the distance.

    Returns ``(None, inf)`` when no representative is reachable.  The
    temporal tolerance expands each representative's lifespan before checking
    temporal overlap, implementing the ``t`` parameter of the paper's QUT
    signature.

    This is the scalar reference; :func:`assign_to_representatives_batch`
    computes the same answer against a pre-built representative frame.
    """
    best_idx: int | None = None
    best_dist = math.inf
    for idx, rep in enumerate(representatives):
        if temporal_tolerance > 0:
            rep_period = rep.period.expand(temporal_tolerance)
            if not rep_period.overlaps(sub.period):
                continue
        dist = spatiotemporal_distance(rep.traj, sub.traj, max_samples=32)
        if dist < best_dist:
            best_dist = dist
            best_idx = idx
    if best_dist > eps:
        return None, best_dist
    return best_idx, best_dist


def assign_to_representatives_batch(
    sub: SubTrajectory,
    rep_frame: MODFrame,
    eps: float,
    temporal_tolerance: float = 0.0,
    max_samples: int = 32,
) -> tuple[int | None, float]:
    """Batched :func:`assign_to_representatives` against a representative frame.

    ``rep_frame`` holds the representatives' precomputed sample grids (row
    ``i`` = representative ``i``); distances to all of them are computed in
    one :func:`spatiotemporal_distance_batch` call.
    """
    if len(rep_frame) == 0:
        return None, math.inf
    dists = spatiotemporal_distance_batch(rep_frame, sub.traj, max_samples=max_samples)
    if temporal_tolerance > 0:
        overlaps = rep_frame.overlaps_period(sub.period, temporal_tolerance)
        dists = np.where(overlaps, dists, math.inf)
    idx = int(np.argmin(dists))
    best_dist = float(dists[idx])
    if best_dist > eps:
        return None, best_dist
    return idx, best_dist


def greedy_clustering(
    subtrajectories: list[SubTrajectory],
    representatives: list[SubTrajectory],
    params: S2TParams,
    *,
    frame: MODFrame | None = None,
) -> tuple[ClusteringResult, float]:
    """Build clusters around the representatives.

    ``frame`` is the optional prebuilt columnar snapshot of
    ``subtrajectories`` (row ``i`` = ``subtrajectories[i].traj``); when
    omitted it is built here.

    Returns ``(result, elapsed_seconds)``.  The returned result's ``method``
    is ``"s2t"``; the pipeline overwrites timings with the per-phase view.
    """
    start = time.perf_counter()
    eps = params.eps
    assert eps is not None, "params must be resolved before clustering"
    if frame is None:
        frame = MODFrame.from_trajectories(sub.traj for sub in subtrajectories)

    clusters = [
        Cluster(cluster_id=i, representative=rep, members=[rep])
        for i, rep in enumerate(representatives)
    ]
    rep_keys = {rep.key for rep in representatives}
    outliers: list[SubTrajectory] = []

    # Running minimum over the representatives, one batch row per
    # representative.  Strict ``<`` keeps the first-selected representative
    # on ties, as a per-sub-trajectory argmin over the representatives would.
    best_dist = np.full(len(subtrajectories), math.inf)
    best_rep = np.full(len(subtrajectories), -1, dtype=np.intp)
    tol = params.temporal_tolerance
    for idx, rep in enumerate(representatives):
        dists = spatiotemporal_distance_batch(frame, rep.traj, max_samples=32)
        closer = dists < best_dist
        if tol > 0:
            closer &= frame.overlaps_period(rep.period, tol)
        best_dist[closer] = dists[closer]
        best_rep[closer] = idx

    assigned = np.where(best_dist <= eps, best_rep, -1).tolist()
    for sub, idx in zip(subtrajectories, assigned):
        if sub.key in rep_keys:
            continue
        if idx < 0:
            outliers.append(sub)
        else:
            clusters[idx].members.append(sub)

    # Dissolve clusters below the support threshold.
    surviving: list[Cluster] = []
    for cluster in clusters:
        if cluster.size >= params.min_cluster_support:
            surviving.append(cluster)
        else:
            outliers.extend(cluster.members)
    # Re-number surviving clusters densely.
    for new_id, cluster in enumerate(surviving):
        cluster.cluster_id = new_id

    result = ClusteringResult(
        method="s2t", clusters=surviving, outliers=outliers, params=params
    )
    return result, time.perf_counter() - start
