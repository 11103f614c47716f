"""GreedyClustering and outlier detection (the C and O of SaCO).

Each representative seeds one cluster.  Every other sub-trajectory joins the
closest representative — under the time-aware trajectory distance — provided
that distance is at most ``eps``; otherwise it is an outlier.  Clusters that
end up with fewer than ``min_cluster_support`` members are dissolved and
their members become outliers, matching the role of the ``γ`` parameter in
the QuT SQL signature.

The sub-trajectories are one columnar :class:`~repro.hermes.frame.MODFrame`
(row ``i`` = sub-trajectory ``i``, addressed by position).  :func:`cluster`
reads one distance row per representative against that frame — in a fit,
the rows :func:`~repro.s2t.sampling.sample` already computed — and keeps a
running ``(best representative, best distance)`` per sub-trajectory, so no
representatives x sub-trajectories distance matrix is materialised.
:func:`greedy_clustering` is the same assignment for callers that hold no
rows: it computes each representative's row with one
:func:`spatiotemporal_distance_batch` call, one at a time.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable

import numpy as np

from repro.hermes.distances import spatiotemporal_distance_batch
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory
from repro.s2t.params import S2TParams
from repro.s2t.result import Cluster, ClusteringResult

__all__ = ["cluster", "greedy_clustering"]


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
    omitted it is built here.  This is :func:`cluster` with each
    representative's distance row computed here, one at a time.

    Returns ``(result, elapsed_seconds)``.  The returned result's ``method``
    is ``"s2t"``; the pipeline overwrites timings with the per-phase view.
    """
    start = time.perf_counter()
    if frame is None:
        frame = MODFrame.from_trajectories(sub.traj for sub in subtrajectories)
    rows = (
        spatiotemporal_distance_batch(frame, rep.traj, max_samples=32)
        for rep in representatives
    )
    result = cluster(subtrajectories, representatives, rows, params, frame)
    return result, time.perf_counter() - start


def cluster(
    subtrajectories: list[SubTrajectory],
    representatives: list[SubTrajectory],
    rows: Iterable[np.ndarray],
    params: S2TParams,
    frame: MODFrame,
) -> ClusteringResult:
    """Assign every sub-trajectory to its closest representative (module docstring).

    ``rows`` yields, per representative in order, its distance to every row
    of ``frame`` (row ``i`` = ``subtrajectories[i]``) — the rows
    :func:`~repro.s2t.sampling.sample` computed while selecting them.
    """
    eps = params.eps
    assert eps is not None, "params must be resolved before clustering"

    clusters = [
        Cluster(cluster_id=i, representative=rep, members=[rep])
        for i, rep in enumerate(representatives)
    ]
    rep_keys = {rep.key for rep in representatives}
    outliers: list[SubTrajectory] = []

    # Running minimum over the representatives, one distance row per
    # representative.  Strict ``<`` keeps the first-selected representative
    # on ties, as a per-sub-trajectory argmin over the representatives would.
    best_dist = np.full(len(subtrajectories), math.inf)
    best_rep = np.full(len(subtrajectories), -1, dtype=np.intp)
    tol = params.temporal_tolerance
    for idx, (rep, dists) in enumerate(zip(representatives, rows)):
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
    for c in clusters:
        if c.size >= params.min_cluster_support:
            surviving.append(c)
        else:
            outliers.extend(c.members)
    # Re-number surviving clusters densely.
    for new_id, c in enumerate(surviving):
        c.cluster_id = new_id

    return ClusteringResult(
        method="s2t", clusters=surviving, outliers=outliers, params=params
    )
