"""Time histogram of cluster cardinalities (Fig. 1, middle view).

Each bar of the histogram is one time bin; within a bar, every cluster
contributes a segment whose height is the number of that cluster's members
alive during the bin — exactly the stacked bar display of the paper's VA
tool ("the existence times of the clusters and the changes of their
cardinality over time").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hermes.types import Period
from repro.s2t.result import ClusteringResult
from repro.va.colors import categorical_color

__all__ = ["TimeHistogram", "cluster_time_histogram"]


@dataclass
class TimeHistogram:
    """Stacked histogram data: ``counts[cluster_index, bin]``."""

    bin_edges: np.ndarray
    cluster_ids: list[int]
    counts: np.ndarray

    @property
    def num_bins(self) -> int:
        return len(self.bin_edges) - 1

    def total_per_bin(self) -> np.ndarray:
        """Total cluster members alive per bin (the bar heights)."""
        return self.counts.sum(axis=0)

    def series_for(self, cluster_id: int) -> np.ndarray:
        """Cardinality-over-time series of one cluster."""
        idx = self.cluster_ids.index(cluster_id)
        return self.counts[idx]

    def existence_period(self, cluster_id: int) -> Period | None:
        """First-to-last bin period during which the cluster has members."""
        series = self.series_for(cluster_id)
        alive = np.flatnonzero(series > 0)
        if len(alive) == 0:
            return None
        return Period(float(self.bin_edges[alive[0]]), float(self.bin_edges[alive[-1] + 1]))

    def to_rows(self) -> list[dict[str, object]]:
        """One row per (bin, cluster) with a positive count — printable form."""
        rows = []
        for b in range(self.num_bins):
            for c_idx, cluster_id in enumerate(self.cluster_ids):
                count = int(self.counts[c_idx, b])
                if count > 0:
                    rows.append(
                        {
                            "bin": b,
                            "t_start": float(self.bin_edges[b]),
                            "t_end": float(self.bin_edges[b + 1]),
                            "cluster": cluster_id,
                            "color": categorical_color(cluster_id),
                            "members_alive": count,
                        }
                    )
        return rows


def cluster_time_histogram(
    result: ClusteringResult,
    n_bins: int = 60,
    period: Period | None = None,
) -> TimeHistogram:
    """Build the cluster-cardinality time histogram of a clustering result.

    Parameters
    ----------
    result:
        Any clustering result (S2T, QuT or a baseline).
    n_bins:
        Number of equal-width time bins.
    period:
        Time range of the histogram; defaults to the span of the result's
        clusters and outliers.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    all_subs = [sub for sub, _cid in result.all_subtrajectories()]
    if period is None:
        if not all_subs:
            raise ValueError("cannot infer a period from an empty result")
        tmin = min(s.period.tmin for s in all_subs)
        tmax = max(s.period.tmax for s in all_subs)
        period = Period(tmin, tmax)
    edges = np.linspace(period.tmin, period.tmax, n_bins + 1)

    cluster_ids = [c.cluster_id for c in result.clusters]
    counts = np.zeros((len(cluster_ids), n_bins), dtype=int)
    for c_idx, cluster in enumerate(result.clusters):
        for member in cluster.members:
            lo = np.searchsorted(edges, member.period.tmin, side="right") - 1
            hi = np.searchsorted(edges, member.period.tmax, side="left")
            lo = max(int(lo), 0)
            hi = min(int(hi), n_bins)
            if hi <= lo:
                hi = lo + 1
            counts[c_idx, lo:hi] += 1
    return TimeHistogram(bin_edges=edges, cluster_ids=cluster_ids, counts=counts)
