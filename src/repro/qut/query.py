"""The QuT-Clustering query algorithm.

Given a ReTraTree and a temporal window ``W``, QuT assembles the
sub-trajectory clusters and outliers that temporally intersect ``W``:

1. **Lookup** (levels 1–2): find the sub-chunks overlapping ``W``.
2. **Load / refine** (levels 3–4): sub-chunks fully covered by ``W``
   contribute their cluster entries as-is; partially covered sub-chunks have
   their archived members restricted to ``W`` and re-matched against the
   sub-chunk's representatives.
3. **Merge**: clusters of temporally adjacent sub-chunks whose
   representatives follow the same spatial path are stitched together, so a
   flow that spans several sub-chunks is reported as one cluster.
4. **Filter**: clusters with fewer than ``gamma`` members are dissolved into
   outliers.

The point is that none of this re-runs the expensive voting/segmentation
work: the cost is index lookups plus partition reads, which is why QuT beats
the "range query + fresh index + S2T from scratch" alternative (benchmark
E7 / the paper's scenario 2).
"""

from __future__ import annotations

import time

from repro.hermes.distances import hausdorff_distance, spatiotemporal_distance
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory
from repro.hermes.types import Period
from repro.qut.retratree import ClusterEntry, ReTraTree, SubChunk, subtrajectory_from_slice
from repro.s2t.result import Cluster, ClusteringResult

__all__ = ["QuTClustering"]


class QuTClustering:
    """Time-aware cluster retrieval over a :class:`~repro.qut.retratree.ReTraTree`."""

    def __init__(self, tree: ReTraTree) -> None:
        if tree.params is None:
            raise ValueError("the ReTraTree is empty; build it before querying")
        self.tree = tree

    # -- public API -------------------------------------------------------------

    def query(self, window: Period) -> ClusteringResult:
        """Clusters and outliers whose lifespan intersects ``window``.

        Degenerate windows — a zero-length instant (``tmin == tmax``, whose
        member restrictions all collapse to single points) or a window that
        misses every materialised sub-chunk — short-circuit to an empty
        result before the load/merge sweep, so edge queries at and beyond
        the dataset's lifespan stay cheap and never trip over empty
        partition batches.
        """
        params = self.tree.params
        assert params is not None and params.distance_threshold is not None
        timings: dict[str, float] = {}

        t0 = time.perf_counter()
        subchunks = self.tree.subchunks_overlapping(window) if window.duration > 0 else []
        timings["lookup"] = time.perf_counter() - t0
        if not subchunks:
            return self._empty_result(window, timings)

        t0 = time.perf_counter()
        partial_clusters: list[tuple[SubChunk, ClusterEntry, list[SubTrajectory]]] = []
        outliers: list[SubTrajectory] = []
        for subchunk in subchunks:
            fully_covered = window.contains_period(subchunk.period)
            groups = [self.tree.load_members(entry) for entry in subchunk.entries]
            pending = self.tree.load_unclustered(subchunk)
            if not fully_covered:
                # One batched frame restriction for the whole sub-chunk —
                # every entry's members plus the unclustered set.
                restricted = self._restrict_member_groups([*groups, pending], window)
                groups, pending = restricted[:-1], restricted[-1]
            for entry, members in zip(subchunk.entries, groups):
                if members:
                    partial_clusters.append((subchunk, entry, members))
            outliers.extend(pending)
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
            "tree_recovered": self.tree.recovered,
        }
        return result

    @staticmethod
    def _restrict_member_groups(
        groups: list[list[SubTrajectory]], window: Period
    ) -> list[list[SubTrajectory]]:
        """Restrict several member lists to the query window in one pass.

        All groups' trajectories are snapshot into a single
        :class:`~repro.hermes.frame.MODFrame` and restricted with one
        batched :meth:`~repro.hermes.frame.MODFrame.slice_period_rows` call
        (one boundary-interpolation pass for the whole sub-chunk) instead of
        a per-member Python ``slice_period`` loop; the surviving rows are
        attributed back to their groups through the returned row indices.
        The frame slicing is row-for-row identical to
        :meth:`Trajectory.slice_period
        <repro.hermes.trajectory.Trajectory.slice_period>`, so each output
        list matches :meth:`_restrict_members_loop` on its input exactly.
        """
        flat = [member for group in groups for member in group]
        out: list[list[SubTrajectory]] = [[] for _ in groups]
        if not flat:
            return out
        frame = MODFrame.from_trajectories(member.traj for member in flat)
        sliced, rows = frame.slice_period_rows(window)
        group_of: list[int] = []
        for g, group in enumerate(groups):
            group_of.extend([g] * len(group))
        for k, row in enumerate(rows):
            row = int(row)
            out[group_of[row]].append(
                subtrajectory_from_slice(flat[row].traj, sliced.trajectory_of(k))
            )
        return out

    @classmethod
    def _restrict_members(
        cls, members: list[SubTrajectory], window: Period
    ) -> list[SubTrajectory]:
        """Restrict one member list to the query window (frame-native)."""
        return cls._restrict_member_groups([members], window)[0]

    @staticmethod
    def _restrict_members_loop(
        members: list[SubTrajectory], window: Period
    ) -> list[SubTrajectory]:
        """Per-member reference implementation of :meth:`_restrict_members`.

        Kept as the equivalence oracle for ``tests/qut/test_query.py``.
        """
        out: list[SubTrajectory] = []
        for member in members:
            piece = member.traj.slice_period(window)
            if piece is not None:
                out.append(subtrajectory_from_slice(member.traj, piece))
        return out

    def _merge_across_subchunks(
        self,
        partial: list[tuple[SubChunk, ClusterEntry, list[SubTrajectory]]],
    ) -> list[tuple[SubTrajectory, list[SubTrajectory]]]:
        """Stitch clusters whose representatives continue across sub-chunk borders.

        Two cluster entries are merged when their sub-chunks are temporally
        adjacent (or identical is impossible — entries within one sub-chunk are
        distinct clusters) and their representatives either co-move (finite
        time-aware distance below the threshold) or trace the same spatial
        path (Hausdorff distance below the threshold).
        """
        params = self.tree.params
        assert params is not None and params.distance_threshold is not None
        threshold = params.distance_threshold
        n = len(partial)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        for i in range(n):
            sc_i, entry_i, _ = partial[i]
            for j in range(i + 1, n):
                sc_j, entry_j, _ = partial[j]
                if sc_i.key == sc_j.key:
                    continue
                gap = self._temporal_gap(sc_i.period, sc_j.period)
                if gap > params.temporal_tolerance + 1e-9:
                    continue
                rep_i, rep_j = entry_i.representative.traj, entry_j.representative.traj
                st_dist = spatiotemporal_distance(rep_i, rep_j, max_samples=32)
                if st_dist <= threshold:
                    union(i, j)
                    continue
                if hausdorff_distance(rep_i, rep_j) <= threshold:
                    union(i, j)

        groups: dict[int, list[int]] = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)

        merged: list[tuple[SubTrajectory, list[SubTrajectory]]] = []
        for indices in groups.values():
            # The representative of the merged cluster is the one with most members.
            best = max(indices, key=lambda idx: len(partial[idx][2]))
            representative = partial[best][1].representative
            members: list[SubTrajectory] = []
            for idx in indices:
                members.extend(partial[idx][2])
            merged.append((representative, members))
        return merged

    @staticmethod
    def _temporal_gap(a: Period, b: Period) -> float:
        """Gap between two periods (0 when they touch or overlap)."""
        if a.overlaps(b):
            return 0.0
        return max(b.tmin - a.tmax, a.tmin - b.tmax)
