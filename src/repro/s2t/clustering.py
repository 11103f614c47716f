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
representatives x sub-trajectories distance matrix is materialised.  The
memberships come out as positions: one stable sort groups the rows by
assignment, and each cluster's members and the outliers are
:class:`~repro.s2t.result.Members` taken from the sub-trajectory rows, so a
fit builds a :class:`SubTrajectory` for its representatives only.
:func:`greedy_clustering` is the same assignment for callers that hold no
rows: it computes each representative's row with one
:func:`spatiotemporal_distance_batch` call, one at a time.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Sequence

import numpy as np

from repro.hermes.distances import spatiotemporal_distance_batch
from repro.hermes.frame import MODFrame, TrajectoryRows
from repro.hermes.trajectory import SubTrajectory
from repro.s2t.params import S2TParams
from repro.s2t.result import Cluster, ClusteringResult, Members

__all__ = ["cluster", "greedy_clustering"]


def greedy_clustering(
    subtrajectories: list[SubTrajectory],
    representatives: list[SubTrajectory],
    params: S2TParams,
) -> tuple[ClusteringResult, float]:
    """Build clusters around the representatives.

    The representatives are drawn from ``subtrajectories`` (keys are
    unique within a MOD).  This is :func:`cluster` over the frame of
    ``subtrajectories``, with each representative's distance row computed
    here, one at a time.

    Returns ``(result, elapsed_seconds)``.  The returned result's ``method``
    is ``"s2t"``; the pipeline overwrites timings with the per-phase view.
    """
    start = time.perf_counter()
    pieces = TrajectoryRows.of(subtrajectories)
    row_of = {sub.key: row for row, sub in enumerate(subtrajectories)}
    try:
        picked = [row_of[rep.key] for rep in representatives]
    except KeyError as exc:
        raise ValueError(f"representative {exc.args[0]} is not among the sub-trajectories") from None
    rows = (
        spatiotemporal_distance_batch(pieces.frame, rep.traj, max_samples=32)
        for rep in representatives
    )
    result = cluster(Members.of_rows(pieces), picked, rows, params, pieces.frame)
    return result, time.perf_counter() - start


def cluster(
    pieces: Sequence[SubTrajectory],
    picked: Sequence[int],
    rows: Iterable[np.ndarray],
    params: S2TParams,
    frame: MODFrame,
) -> ClusteringResult:
    """Assign every sub-trajectory to its closest representative (module docstring).

    ``pieces`` are the sub-trajectories (row ``i`` of ``frame`` =
    ``pieces[i]``; a list is wrapped as :class:`~repro.s2t.result.Members`),
    ``picked`` the representatives' rows in selection order, and ``rows``
    yields, per representative, its distance to every row of ``frame`` —
    the rows :func:`~repro.s2t.sampling.sample` computed while selecting
    them.  A cluster's members are its representative, then the rows
    assigned to it in row order; the outliers are the unassigned rows in row
    order, then the members of each dissolved cluster.  Both are taken from
    ``pieces`` by position, so no sub-trajectory is built here but the
    representatives.
    """
    eps = params.eps
    assert eps is not None, "params must be resolved before clustering"
    pieces = Members(pieces)

    # Running minimum over the representatives, one distance row per
    # representative.  Strict ``<`` keeps the first-selected representative
    # on ties, as a per-sub-trajectory argmin over the representatives would.
    best_dist = np.full(len(pieces), math.inf)
    best_rep = np.full(len(pieces), -1, dtype=np.intp)
    tol = params.temporal_tolerance
    for idx, (row, dists) in enumerate(zip(picked, rows)):
        closer = dists < best_dist
        if tol > 0:
            closer &= frame.overlaps_period(frame.period_of(row), tol)
        best_dist[closer] = dists[closer]
        best_rep[closer] = idx

    # Group the rows by assignment: -1 (outlier), then each representative's
    # index, then the representatives themselves (value k), each group in
    # row order (stable sort).
    k = len(picked)
    assigned = np.where(best_dist <= eps, best_rep, -1)
    assigned[np.asarray(picked, dtype=np.intp)] = k
    order = np.argsort(assigned, kind="stable")
    edges = np.searchsorted(assigned[order], np.arange(-1, k + 2)).tolist()

    # Dissolve clusters below the support threshold; ids stay dense.
    clusters: list[Cluster] = []
    dissolved: list[np.ndarray] = []
    for idx, representative in enumerate(pieces.take(picked)):
        positions = np.concatenate(([picked[idx]], order[edges[idx + 1] : edges[idx + 2]]))
        if len(positions) >= params.min_cluster_support:
            clusters.append(Cluster(len(clusters), representative, pieces.take(positions)))
        else:
            dissolved.append(positions)
    outliers = pieces.take(np.concatenate([order[edges[0] : edges[1]], *dissolved]))

    return ClusteringResult(method="s2t", clusters=clusters, outliers=outliers, params=params)
