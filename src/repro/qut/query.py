"""The QuT-Clustering query algorithm.

Given a ReTraTree and a temporal window ``W``, QuT assembles the
sub-trajectory clusters and outliers that temporally intersect ``W``:

1. **Lookup** (levels 1–2): find the sub-chunks overlapping ``W``.
2. **Load / refine** (levels 3–4): sub-chunks fully covered by ``W``
   contribute their cluster entries as-is; partially covered sub-chunks have
   their archived members restricted to ``W`` and re-matched against the
   sub-chunk's representatives.
3. **Merge**: clusters of temporally adjacent sub-chunks whose
   representatives co-move or follow the same spatial path are stitched
   together, so a flow that spans several sub-chunks is reported as one
   cluster.
4. **Filter**: clusters with fewer than ``gamma`` members are dissolved into
   outliers.

The point is that none of this re-runs the expensive voting/segmentation
work: the cost is index lookups plus partition reads, which is why QuT beats
the "range query + fresh index + S2T from scratch" alternative (benchmark
E7 / the paper's scenario 2).

The merge decision — do two cluster entries of adjacent sub-chunks continue
each other — depends on the stored representatives only, never on the
window, so it is read off the tree: one boolean merge-adjacency matrix per
pair of adjacent sub-chunks, derived on first touch and invalidated on
mutation (the "Derived state" section of :mod:`repro.qut.retratree`).  What
happens here per window is which sub-chunks and entries it touches, the
partition reads (member records stay on disk and are decoded per query,
through the buffer pool, one batch per sub-chunk: its entries' partitions
and its unclustered one, each read whole, into one frame), restricting
the (at most two) partially covered sub-chunks by slicing that frame, and
the connected components of the merge links among the entries present.  A
window that re-touches a sub-chunk pair an earlier query touched since its
last mutation measures no distance; the per-query deltas of the tree's
read-path counters are reported in ``extras`` (``partitions_decoded``,
``merge_pairs_evaluated``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory
from repro.hermes.types import Period
from repro.qut.retratree import ReTraTree, SubChunk, subtrajectory_from_slice
from repro.s2t.result import Cluster, ClusteringResult

__all__ = ["QuTClustering"]

# ReTraTreeStats read-path counters whose per-query deltas go into ``extras``.
_READ_COUNTERS = ("partitions_decoded", "merge_pairs_evaluated")


class QuTClustering:
    """Time-aware cluster retrieval over a :class:`~repro.qut.retratree.ReTraTree`."""

    def __init__(self, tree: ReTraTree) -> None:
        self.tree = tree

    # -- public API -------------------------------------------------------------

    def query(self, window: Period) -> ClusteringResult:
        """Clusters and outliers whose lifespan intersects ``window``.

        Degenerate windows — a zero-length instant (``tmin == tmax``, whose
        member restrictions all collapse to single points) or a window that
        misses every materialised sub-chunk (every window does, on the tree
        of an empty dataset) — short-circuit to an empty result before the
        load/merge sweep, so edge queries at and beyond the dataset's
        lifespan stay cheap and never trip over empty partition batches.
        """
        timings: dict[str, float] = {}
        t0 = time.perf_counter()
        subchunks = self.tree.subchunks_overlapping(window) if window.duration > 0 else []
        timings["lookup"] = time.perf_counter() - t0
        if not subchunks:
            return self._empty_result(window, timings)
        params = self.tree.params
        assert params is not None and params.distance_threshold is not None

        stats = self.tree.stats
        before = [getattr(stats, name) for name in _READ_COUNTERS]

        t0 = time.perf_counter()
        partial_clusters, outliers = self._load_partial_clusters(subchunks, window)
        timings["load"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        merged = self._merge_across_subchunks(partial_clusters)
        timings["merge"] = time.perf_counter() - t0

        # gamma filter and final assembly.
        clusters: list[Cluster] = []
        for cluster_id, (representative, members) in enumerate(merged):
            if len(members) >= params.gamma:
                clusters.append(
                    Cluster(cluster_id=cluster_id, representative=representative, members=members)
                )
            else:
                outliers.extend(members)
        # Re-number densely after the filter.
        for new_id, cluster in enumerate(clusters):
            cluster.cluster_id = new_id

        result = ClusteringResult(
            method="qut",
            clusters=clusters,
            outliers=outliers,
            params=params,
            timings=timings,
        )
        result.extras = {
            "window": (window.tmin, window.tmax),
            "subchunks_touched": len(subchunks),
            "entries_touched": sum(len(sc.entries) for sc in subchunks),
            **{
                name: getattr(stats, name) - count
                for name, count in zip(_READ_COUNTERS, before)
            },
            "tree_recovered": self.tree.recovered,
        }
        return result

    # -- helpers -----------------------------------------------------------------

    def _empty_result(self, window: Period, timings: dict[str, float]) -> ClusteringResult:
        """An empty :class:`ClusteringResult` for windows that match nothing."""
        timings.setdefault("load", 0.0)
        timings.setdefault("merge", 0.0)
        result = ClusteringResult(
            method="qut", clusters=[], outliers=[], params=self.tree.params, timings=timings
        )
        result.extras = {
            "window": (window.tmin, window.tmax),
            "subchunks_touched": 0,
            "entries_touched": 0,
            **dict.fromkeys(_READ_COUNTERS, 0),
            "tree_recovered": self.tree.recovered,
        }
        return result

    def _load_partial_clusters(
        self, subchunks: list[SubChunk], window: Period
    ) -> tuple[list[tuple[SubChunk, int, list[SubTrajectory]]], list[SubTrajectory]]:
        """Per sub-chunk, each entry's members inside ``window`` plus the outliers.

        Returns ``(rows, outliers)``: one ``(sub-chunk, entry position,
        members)`` row per entry with at least one member in the window, in
        sub-chunk then entry order, and the unclustered sub-trajectories.
        Each sub-chunk is read as one decoded batch
        (:meth:`~repro.qut.retratree.ReTraTree.load_subchunk`); a partially
        covered one is restricted by slicing that batch's frame once.
        """
        rows: list[tuple[SubChunk, int, list[SubTrajectory]]] = []
        outliers: list[SubTrajectory] = []
        for subchunk in subchunks:
            batch, bounds = self.tree.load_subchunk(subchunk)
            if window.contains_period(subchunk.period):
                members = batch.subtrajectories()
            else:
                members, bounds = self._restrict_batch(batch.frame, bounds, window)
            groups = [members[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
            for position, group in enumerate(groups[:-1]):
                if group:
                    rows.append((subchunk, position, group))
            outliers.extend(groups[-1])
        return rows, outliers

    @staticmethod
    def _restrict_batch(
        frame: MODFrame, bounds: np.ndarray, window: Period
    ) -> tuple[list[SubTrajectory], np.ndarray]:
        """Restrict a sub-chunk's decoded frame to the query window in one pass.

        ``bounds`` are the frame's per-partition row bounds.  One batched
        :meth:`~repro.hermes.frame.MODFrame.slice_period_rows` call does the
        boundary interpolation for the whole sub-chunk; each surviving row
        becomes a sub-trajectory of the member it was cut from.  Returns the
        survivors, in row order, and their per-partition bounds.  The
        slicing is row-for-row identical to :meth:`Trajectory.slice_period
        <repro.hermes.trajectory.Trajectory.slice_period>` (the per-member
        oracle lives in ``tests/qut/oracles.py``).
        """
        sliced, kept = frame.slice_period_rows(window)
        members = [
            subtrajectory_from_slice(frame.trajectory_of(row), sliced.trajectory_of(k))
            for k, row in enumerate(kept.tolist())
        ]
        return members, np.searchsorted(kept, bounds)

    def _merge_across_subchunks(
        self,
        partial: list[tuple[SubChunk, int, list[SubTrajectory]]],
    ) -> list[tuple[SubTrajectory, list[SubTrajectory]]]:
        """Stitch clusters whose representatives continue across sub-chunk borders.

        ``partial`` rows are ``(sub-chunk, entry position, members in the
        window)`` in sub-chunk (= temporal) order.  Two rows are merged when
        their sub-chunks are distinct and temporally adjacent (gap within the
        temporal tolerance) and the tree's
        :meth:`~repro.qut.retratree.ReTraTree.merge_adjacency` matrix of that
        sub-chunk pair links their entries; the connected components of
        those links are the merged clusters.  Nothing here measures a
        distance: the matrices are a property of the tree.
        """
        params = self.tree.params
        assert params is not None
        tolerance = params.temporal_tolerance + 1e-9
        parent = list(range(len(partial)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        # One run of consecutive rows per sub-chunk: where it starts and
        # which entry positions are present in this window.
        runs: list[tuple[SubChunk, int, list[int]]] = []
        for row, (subchunk, position, _members) in enumerate(partial):
            if not runs or runs[-1][0] is not subchunk:
                runs.append((subchunk, row, []))
            runs[-1][2].append(position)

        for a, (earlier, start_a, present_a) in enumerate(runs):
            for later, start_b, present_b in runs[a + 1 :]:
                # Later sub-chunks only start later: once one is out of
                # reach, so is the rest.
                if self._temporal_gap(earlier.period, later.period) > tolerance:
                    break
                linked = self.tree.merge_adjacency(earlier, later)[
                    np.ix_(present_a, present_b)
                ]
                for hit_a, hit_b in np.argwhere(linked):
                    root_a, root_b = find(start_a + int(hit_a)), find(start_b + int(hit_b))
                    if root_a != root_b:
                        parent[root_b] = root_a

        groups: dict[int, list[int]] = {}
        for i in range(len(partial)):
            groups.setdefault(find(i), []).append(i)

        merged: list[tuple[SubTrajectory, list[SubTrajectory]]] = []
        for indices in groups.values():
            # The representative of the merged cluster is the one with most members.
            subchunk, position, _members = partial[
                max(indices, key=lambda idx: len(partial[idx][2]))
            ]
            members: list[SubTrajectory] = []
            for idx in indices:
                members.extend(partial[idx][2])
            merged.append((subchunk.entries[position].representative, members))
        return merged

    @staticmethod
    def _temporal_gap(a: Period, b: Period) -> float:
        """Gap between two periods (0 when they touch or overlap)."""
        if a.overlaps(b):
            return 0.0
        return max(b.tmin - a.tmax, a.tmin - b.tmax)
