"""The window-independent state a ReTraTree derives once and keeps.

Merge adjacency matrices and the lazy pg3D-Rtrees: each is pinned against
its scalar / from-scratch oracle, and every mutation that changes one must
invalidate it.  Member records are *not* kept — every query decodes the
partitions it touches — and the tests pin that too.  They read the tree's
own counters (``ReTraTreeStats.partitions_decoded`` /
``merge_pairs_evaluated`` / ``rtrees_built``), never a clock.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    aircraft_scenario,
    lane_scenario,
    maritime_scenario,
    orbit_scenario,
    urban_scenario,
)
from repro.hermes.distances import hausdorff_distance
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import Period
from repro.index.rtree3d import RTree3D
from repro.qut.params import QuTParams
from repro.qut.query import QuTClustering
from repro.qut.retratree import (
    ClusterEntry,
    ReTraTree,
    SubChunk,
    _bbox_faces_within,
)
from repro.storage.catalog import StorageManager
from tests.conftest import make_linear_trajectory, restriction_signature
from tests.qut.oracles import merge_across_subchunks_scalar
from tests.qut.test_retratree import flow_mod
from tests.storage.oracles import record_to_subtrajectory as _record_to_subtrajectory

SCENARIOS = {
    "lanes": lane_scenario,
    "aircraft": aircraft_scenario,
    "orbit": orbit_scenario,
    "urban": urban_scenario,
    "maritime": maritime_scenario,
}
FLOW_PARAMS = QuTParams(tau=50.0, delta=25.0, overflow_threshold=6)


def result_signature(result) -> tuple:
    """Bit-exact view of a QuT answer: representatives, members, outliers, in order."""
    return (
        tuple(
            (
                restriction_signature([cluster.representative]),
                restriction_signature(cluster.members),
            )
            for cluster in result.clusters
        ),
        restriction_signature(result.outliers),
    )


def merged_identity(merged) -> list:
    """Which representative object leads which member objects, in order."""
    return [(id(rep), [id(member) for member in members]) for rep, members in merged]


def fractions_of(period: Period, lo: float, hi: float) -> Period:
    return Period(period.tmin + lo * period.duration, period.tmin + hi * period.duration)


def scan_partition(tree: ReTraTree, name: str) -> list[SubTrajectory]:
    """A partition's records decoded straight off the heapfile, no cache."""
    heapfile = tree.storage.get(name).heapfile
    return [_record_to_subtrajectory(raw) for _rid, raw in heapfile.scan_records()]


# -- (i) merge decisions: matrices == scalar oracle ---------------------------------


class TestMergeMatchesScalarOracle:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_on_every_scenario(self, scenario, seed):
        mod, _truth = SCENARIOS[scenario](n_trajectories=40, n_samples=30, seed=seed)
        tree = ReTraTree.build(mod)
        qut = QuTClustering(tree)
        evaluated = 0
        for lo, hi in [(0.0, 1.0), (0.1, 0.55), (0.4, 0.9), (0.3, 0.35)]:
            window = fractions_of(mod.period, lo, hi)
            rows, _outliers = qut._load_partial_clusters(
                tree.subchunks_overlapping(window), window
            )
            expected = merge_across_subchunks_scalar(tree.params, rows)
            assert merged_identity(qut._merge_across_subchunks(rows)) == merged_identity(
                expected
            )
            evaluated += len(rows)
        assert evaluated > 0

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_on_generated_representative_sets(self, data):
        """Hand-built level 3: touching / overlapping / disjoint sub-chunk
        periods, duplicate representatives, tolerance 0 and > 0, and rows
        for only some of the entries."""
        coord = st.integers(min_value=-4, max_value=4).map(lambda v: v / 2.0)
        tolerance = data.draw(st.sampled_from([0.0, 3.0]))
        tree = ReTraTree(QuTParams())
        tree.params = QuTParams(
            tau=40.0,
            delta=10.0,
            temporal_tolerance=tolerance,
            distance_threshold=data.draw(st.sampled_from([0.5, 1.0, 2.5])),
        )
        pool: list[Trajectory] = []  # drawn from again to plant duplicates
        rows = []
        start = 0.0
        for sub_idx in range(data.draw(st.integers(min_value=2, max_value=4))):
            # Next period starts before, at, or after the previous one's end.
            start += data.draw(st.sampled_from([-4.0, 0.0, 2.0, 6.0])) if sub_idx else 0.0
            period = Period(start, start + 10.0)
            subchunk = SubChunk(chunk_idx=0, sub_idx=sub_idx, period=period)
            for position in range(data.draw(st.integers(min_value=0, max_value=4))):
                if pool and data.draw(st.booleans()):
                    traj = data.draw(st.sampled_from(pool))
                else:
                    n = data.draw(st.integers(min_value=2, max_value=5))
                    traj = Trajectory(
                        f"r{len(pool)}",
                        "0",
                        data.draw(st.lists(coord, min_size=n, max_size=n)),
                        data.draw(st.lists(coord, min_size=n, max_size=n)),
                        np.linspace(
                            period.tmin + data.draw(st.sampled_from([0.0, 4.0])),
                            period.tmax,
                            n,
                        ),
                    )
                    pool.append(traj)
                rep = SubTrajectory(traj.key, 0, traj.num_points - 1, traj)
                subchunk.entries.append(ClusterEntry(position, rep, partition_name=""))
                size = data.draw(st.integers(min_value=0, max_value=3))
                if size:
                    rows.append((subchunk, position, [rep] * size))
            subchunk.touch_entries()
            tree._subchunks[subchunk.key] = subchunk
            start = period.tmax

        merged = QuTClustering(tree)._merge_across_subchunks(rows)
        assert merged_identity(merged) == merged_identity(
            merge_across_subchunks_scalar(tree.params, rows)
        )


class TestBoundingBoxPreReject:
    """``_bbox_faces_within`` may only reject rows whose Hausdorff distance exceeds ``d``."""

    def test_disjoint_boxes_are_rejected(self):
        near = make_linear_trajectory("a", "0", (0, 0), (10, 0))
        far = make_linear_trajectory("b", "0", (100, 100), (110, 100))
        frame = MODFrame.from_trajectories([near, far])
        assert _bbox_faces_within(frame, near, 5.0).tolist() == [True, False]

    def test_threshold_exactly_on_the_bound_is_kept(self):
        a = make_linear_trajectory("a", "0", (0, 0), (10, 0))
        b = make_linear_trajectory("b", "0", (0, 3), (10, 3))  # H == bbox gap == 3
        frame = MODFrame.from_trajectories([a])
        assert hausdorff_distance(a, b) == 3.0
        assert _bbox_faces_within(frame, b, 3.0).tolist() == [True]
        assert _bbox_faces_within(frame, b, np.nextafter(3.0, 0.0)).tolist() == [True]
        assert _bbox_faces_within(frame, b, 2.999).tolist() == [False]

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_never_rejects_a_row_within_the_threshold(self, data):
        coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)

        def draw_traj(name):
            n = data.draw(st.integers(min_value=2, max_value=6))
            return Trajectory(
                name,
                "0",
                data.draw(st.lists(coord, min_size=n, max_size=n)),
                data.draw(st.lists(coord, min_size=n, max_size=n)),
                np.arange(n, dtype=float),
            )

        rows = [draw_traj(f"r{i}") for i in range(3)]
        probe = draw_traj("probe")
        frame = MODFrame.from_trajectories(rows)
        for row, traj in enumerate(rows):
            exact = hausdorff_distance(traj, probe)
            assert _bbox_faces_within(frame, probe, exact)[row]


# -- counters: what a warm, an appended-to and a cold tree recompute -----------------


@pytest.fixture
def flow_tree():
    mod = flow_mod(n_per_flow=6, n_flows=2, duration=100.0)
    return mod, ReTraTree.build(mod, FLOW_PARAMS)


def late_batch(n: int = 4) -> list[Trajectory]:
    """Newcomers alive over the second half only: they leave early sub-chunks alone."""
    return [
        make_linear_trajectory(f"new{i}", "0", (5, 0.2 * i), (10, 0.2 * i), 50.0, 100.0, 11)
        for i in range(n)
    ]


class TestReadPathCounters:
    def test_second_identical_window_measures_no_distance(self, flow_tree):
        mod, tree = flow_tree
        qut = QuTClustering(tree)
        window = Period(10.0, 90.0)
        first = qut.query(window)
        touched = tree.subchunks_overlapping(window)
        # One scan per touched partition: every entry's plus the unclustered one.
        assert first.extras["partitions_decoded"] == sum(len(sc.entries) + 1 for sc in touched)
        assert first.extras["merge_pairs_evaluated"] > 0
        second = qut.query(window)
        assert second.extras["partitions_decoded"] == first.extras["partitions_decoded"]
        assert second.extras["merge_pairs_evaluated"] == 0
        assert second.extras["rtrees_built"] == 0
        assert result_signature(second) == result_signature(first)

    def test_append_reevaluates_only_the_pairs_whose_entries_it_changed(self, flow_tree):
        mod, tree = flow_tree
        qut = QuTClustering(tree)
        qut.query(mod.period)  # every adjacent pair evaluated once

        def pairs_made_stale_by(batch) -> int:
            versions = {sc.key: sc.entries_version for sc in tree.subchunks()}
            tree.append(batch)
            subchunks = tree.subchunks()
            moved = {sc.key for sc in subchunks if versions.get(sc.key) != sc.entries_version}
            return sum(
                len(a.entries) * len(b.entries)
                for a, b in zip(subchunks, subchunks[1:])
                if a.key in moved or b.key in moved
            )

        # Newcomers that join existing clusters change members, not entries.
        assert pairs_made_stale_by(late_batch()) == 0
        assert qut.query(mod.period).extras["merge_pairs_evaluated"] == 0
        # A flow nobody has seen over the first 30 s: its sub-chunks overflow
        # and open new entries; the pairs among later sub-chunks stay valid.
        stale = pairs_made_stale_by(
            [
                make_linear_trajectory(
                    f"g{i}", "0", (0, 200 + 0.3 * i), (3, 200 + 0.3 * i), 0, 30, 7
                )
                for i in range(6)
            ]
        )
        subchunks = tree.subchunks()
        every = sum(len(a.entries) * len(b.entries) for a, b in zip(subchunks, subchunks[1:]))
        assert 0 < stale < every
        assert qut.query(mod.period).extras["merge_pairs_evaluated"] == stale
        assert qut.query(mod.period).extras["merge_pairs_evaluated"] == 0

    def test_cold_open_running_only_qut_builds_no_rtree(self, tmp_path):
        mod = flow_mod(n_per_flow=6, n_flows=2, duration=100.0)
        storage = StorageManager(tmp_path / "tree")
        tree = ReTraTree.build(mod, FLOW_PARAMS, storage=storage, name="flows")
        assert tree.stats.rtrees_built == 0  # nor does a bulk load
        manifest = tree.to_manifest()
        storage.close()

        reopened = ReTraTree.from_manifest(manifest, storage=StorageManager(tmp_path / "tree"))
        result = QuTClustering(reopened).query(Period(10.0, 90.0))
        assert result.extras["rtrees_built"] == 0
        assert reopened.stats.rtrees_built == 0
        entry = next(e for sc in reopened.subchunks() for e in sc.entries)
        reopened.load_members_in(entry, entry.bbox)
        assert reopened.stats.rtrees_built == 1
        reopened.load_members_in(entry, entry.bbox)
        assert reopened.stats.rtrees_built == 1


# -- (ii)-(iv) invalidation ------------------------------------------------------------


class TestInvalidation:
    WINDOWS = [Period(0.0, 100.0), Period(10.0, 90.0), Period(30.0, 60.0), Period(55.0, 95.0)]

    def test_append_after_a_query_equals_cold_reopen_and_unqueried_replay(self, tmp_path):
        mod = flow_mod(n_per_flow=6, n_flows=2, duration=100.0)
        storage = StorageManager(tmp_path / "queried")
        queried = ReTraTree.build(mod, FLOW_PARAMS, storage=storage, name="flows")
        for window in self.WINDOWS:  # fill every cache before the append
            QuTClustering(queried).query(window)
        queried.append(late_batch())

        replayed = ReTraTree.build(mod, FLOW_PARAMS, name="flows")  # never queried before
        replayed.append(late_batch())

        manifest = queried.to_manifest()
        storage.close()
        cold = ReTraTree.from_manifest(manifest, storage=StorageManager(tmp_path / "queried"))

        for window in self.WINDOWS:
            expected = result_signature(QuTClustering(replayed).query(window))
            assert result_signature(QuTClustering(queried).query(window)) == expected
            assert result_signature(QuTClustering(cold).query(window)) == expected

    def test_replace_representative_invalidates_the_merge_matrix(self, flow_tree):
        mod, tree = flow_tree
        qut = QuTClustering(tree)
        before = qut.query(mod.period)
        subchunk = next(sc for sc in tree.subchunks() if sc.entries)
        stray = make_linear_trajectory(
            "stray", "0", (900, 900), (910, 900), subchunk.period.tmin, subchunk.period.tmax, 5
        )
        tree.replace_representative(
            subchunk, 0, SubTrajectory(stray.key, 0, stray.num_points - 1, stray)
        )
        after = qut.query(mod.period)
        assert after.extras["merge_pairs_evaluated"] > 0
        rows, _ = qut._load_partial_clusters(tree.subchunks(), mod.period)
        assert merged_identity(qut._merge_across_subchunks(rows)) == merged_identity(
            merge_across_subchunks_scalar(tree.params, rows)
        )
        # The entry that lost its representative no longer continues its flow.
        assert after.num_clusters > before.num_clusters

    def test_flush_recreating_a_partition_under_the_same_name_invalidates(self):
        # Unrelated strays: S2T finds no cluster among them, so the flush
        # drops the unclustered partition and re-archives the same records
        # under the same name (same record count).
        tree = ReTraTree(QuTParams(tau=100.0, delta=100.0, overflow_threshold=50))
        for i in range(4):
            tree.insert_trajectory(
                make_linear_trajectory(f"s{i}", "0", (100 * i, 0), (100 * i + 1, 50), 0, 100, 6)
            )
        (subchunk,) = tree.subchunks()
        assert len(tree.load_unclustered(subchunk)) == 4
        stale = tree.partition_rtree(subchunk.unclustered_partition)

        tree.flush_unclustered(subchunk)
        assert tree.partition_rtree(subchunk.unclustered_partition) is not stale
        reloaded = tree.load_unclustered(subchunk)
        assert len(reloaded) == subchunk.unclustered_count
        assert restriction_signature(reloaded) == restriction_signature(
            scan_partition(tree, subchunk.unclustered_partition)
        )
        for entry in subchunk.entries:
            assert restriction_signature(tree.load_members(entry)) == restriction_signature(
                scan_partition(tree, entry.partition_name)
            )

    def test_overflow_flush_between_queries(self, flow_tree):
        """A flush triggered by an append (new entries, unclustered partition
        recreated) between two queries of the same window."""
        mod, tree = flow_tree
        qut = QuTClustering(tree)
        window = Period(30.0, 95.0)
        qut.query(window)
        runs = tree.stats.s2t_runs
        # A third flow nobody has seen: buffered as outliers, then clustered.
        tree.append(
            [
                make_linear_trajectory(f"g{i}", "0", (0, 200 + 0.3 * i), (10, 200 + 0.3 * i), 0, 100, 21)
                for i in range(6)
            ]
        )
        assert tree.stats.s2t_runs > runs
        warm = qut.query(window)
        cold = QuTClustering(ReTraTree.from_manifest(tree.to_manifest(), tree.storage)).query(
            window
        )
        assert result_signature(warm) == result_signature(cold)

    def test_callers_cannot_reach_tree_state_through_returned_lists(self, flow_tree):
        mod, tree = flow_tree
        qut = QuTClustering(tree)
        window = Period(10.0, 90.0)
        first = qut.query(window)
        expected = result_signature(first)
        assert expected == result_signature(qut.query(window))

        for cluster in first.clusters:
            cluster.members.clear()
        first.outliers.clear()
        for subchunk in tree.subchunks():
            for entry in subchunk.entries:
                tree.load_members(entry).clear()
            tree.load_unclustered(subchunk).append(None)
        assert result_signature(qut.query(window)) == expected


# -- (v) the lazy pg3D-Rtrees -------------------------------------------------------------


class TestLazyPartitionRtrees:
    @staticmethod
    def assert_rtree_matches_a_fresh_one(tree: ReTraTree, entry: ClusterEntry, box) -> None:
        heapfile = tree.storage.get(entry.partition_name).heapfile
        fresh: RTree3D = RTree3D(max_entries=16)
        for rid, raw in heapfile.scan_records():
            fresh.insert(_record_to_subtrajectory(raw).bbox, rid)
        expected = [_record_to_subtrajectory(heapfile.get(rid)) for rid in fresh.range_search(box)]
        got = tree.load_members_in(entry, box)
        assert sorted(restriction_signature(got)) == sorted(restriction_signature(expected))
        brute = [sub for sub in scan_partition(tree, entry.partition_name) if sub.bbox.intersects(box)]
        assert sorted(restriction_signature(got)) == sorted(restriction_signature(brute))

    def test_after_reopen_and_after_further_archives(self, tmp_path):
        mod = flow_mod(n_per_flow=6, n_flows=2, duration=100.0)
        storage = StorageManager(tmp_path / "tree")
        tree = ReTraTree.build(mod, FLOW_PARAMS, storage=storage, name="flows")
        manifest = tree.to_manifest()
        storage.close()
        reopened = ReTraTree.from_manifest(manifest, storage=StorageManager(tmp_path / "tree"))

        entries = [entry for sc in reopened.subchunks() for entry in sc.entries]
        assert entries
        for entry in entries:
            self.assert_rtree_matches_a_fresh_one(reopened, entry, entry.bbox)
            half = entry.bbox.as_tuple()
            narrow = type(entry.bbox)(*half[:3], (half[0] + half[3]) / 2, half[4], half[5])
            self.assert_rtree_matches_a_fresh_one(reopened, entry, narrow)
        built = reopened.stats.rtrees_built
        assert built == len(entries)

        counts = {entry.partition_name: entry.member_count for entry in entries}
        reopened.append(late_batch())
        grown = [entry for entry in entries if entry.member_count > counts[entry.partition_name]]
        assert grown  # the R-trees built above are stale for these
        for entry in entries:
            self.assert_rtree_matches_a_fresh_one(reopened, entry, entry.bbox)
            assert len(reopened.load_members_in(entry, entry.bbox)) == entry.member_count
        assert reopened.stats.rtrees_built == built + len(grown)
