"""Unit and integration tests for the QuT-Clustering query algorithm."""

import math

import pytest

from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.query import QuTClustering
from repro.qut.retratree import ReTraTree
from tests.conftest import restriction_signature
from tests.qut.oracles import restrict_member_groups, restrict_members, restrict_members_loop
from tests.qut.test_retratree import flow_mod


@pytest.fixture(scope="module")
def built_tree():
    mod = flow_mod(n_per_flow=6, n_flows=2, duration=100.0)
    tree = ReTraTree.build(mod, QuTParams(tau=50.0, delta=25.0, overflow_threshold=6))
    return mod, tree


class TestQuTQuery:
    @pytest.mark.parametrize("bounds", [(0.0, 10.0), (-math.inf, math.inf)])
    def test_empty_tree_answers_every_window_empty(self, bounds):
        """The tree of an empty dataset holds no sub-chunk, so every window
        is answered like one that misses the data."""
        result = QuTClustering(ReTraTree()).query(Period(*bounds))
        assert result.method == "qut"
        assert (result.num_clusters, result.num_outliers) == (0, 0)
        assert result.extras["subchunks_touched"] == 0

    def test_full_window_returns_flow_clusters(self, built_tree):
        mod, tree = built_tree
        result = QuTClustering(tree).query(mod.period)
        assert result.method == "qut"
        assert result.num_clusters >= 2
        # Each flow's objects should dominate some cluster.
        flat = {obj for c in result.clusters for obj in c.object_ids()}
        assert any(o.startswith("f0") for o in flat)
        assert any(o.startswith("f1") for o in flat)

    def test_window_outside_data_is_empty(self, built_tree):
        _mod, tree = built_tree
        result = QuTClustering(tree).query(Period(1000.0, 2000.0))
        assert result.num_clusters == 0
        assert result.num_outliers == 0

    def test_partial_window_restricts_members(self, built_tree):
        mod, tree = built_tree
        window = Period(30.0, 60.0)
        result = QuTClustering(tree).query(window)
        for sub, _cid in result.all_subtrajectories():
            assert sub.period.tmin >= window.tmin - 1e-6
            assert sub.period.tmax <= window.tmax + 1e-6

    def test_results_only_from_touched_subchunks(self, built_tree):
        mod, tree = built_tree
        window = Period(0.0, 20.0)
        result = QuTClustering(tree).query(window)
        assert result.extras["subchunks_touched"] <= len(tree.subchunks())
        assert result.extras["subchunks_touched"] >= 1

    def test_gamma_filter_applied(self, built_tree):
        mod, tree = built_tree
        result = QuTClustering(tree).query(mod.period)
        gamma = tree.params.gamma
        assert all(c.size >= gamma for c in result.clusters)

    def test_timings_present(self, built_tree):
        mod, tree = built_tree
        result = QuTClustering(tree).query(mod.period)
        assert {"lookup", "load", "merge"} <= set(result.timings)

    def test_merge_stitches_flows_across_subchunks(self, built_tree):
        mod, tree = built_tree
        # Without merging, each flow would appear once per sub-chunk (4 chunks).
        result = QuTClustering(tree).query(mod.period)
        f0_clusters = [
            c for c in result.clusters if any(o.startswith("f0") for o in c.object_ids())
        ]
        assert len(f0_clusters) < 4

    def test_cluster_ids_dense(self, built_tree):
        mod, tree = built_tree
        result = QuTClustering(tree).query(mod.period)
        assert [c.cluster_id for c in result.clusters] == list(range(result.num_clusters))


class TestEdgeWindows:
    """Degenerate windows must yield empty results, never raise."""

    @pytest.mark.parametrize("bounds", [(-500.0, -100.0), (5000.0, 9000.0)])
    def test_window_entirely_outside_lifespan(self, built_tree, bounds):
        _mod, tree = built_tree
        result = QuTClustering(tree).query(Period(*bounds))
        assert result.method == "qut"
        assert result.num_clusters == 0
        assert result.num_outliers == 0
        assert result.extras["subchunks_touched"] == 0
        assert {"lookup", "load", "merge"} <= set(result.timings)

    @pytest.mark.parametrize("t", [0.0, 37.5, 50.0, 100.0])
    def test_zero_length_window(self, built_tree, t):
        """An instant window (tmin == tmax): every member restriction
        degenerates, so the result is empty — including at sub-chunk
        boundaries and the dataset's endpoints."""
        _mod, tree = built_tree
        result = QuTClustering(tree).query(Period(t, t))
        assert result.num_clusters == 0
        assert result.num_outliers == 0
        assert result.extras["window"] == (t, t)

    def test_window_grazing_the_lifespan_end(self, built_tree):
        mod, tree = built_tree
        tmax = mod.period.tmax
        result = QuTClustering(tree).query(Period(tmax, tmax + 100.0))
        # Only a zero-duration overlap exists; nothing survives restriction.
        assert result.num_clusters == 0
        assert result.num_outliers == 0


class TestRestrictionEquivalence:
    """The frame-native batched restriction is bit-identical to the loop."""

    @pytest.mark.parametrize("bounds", [(10.0, 40.0), (30.0, 60.0), (0.0, 95.0)])
    def test_batched_matches_loop_on_archived_members(self, built_tree, bounds):
        _mod, tree = built_tree
        window = Period(*bounds)
        for subchunk in tree.subchunks_overlapping(window):
            groups = [tree.load_members(entry) for entry in subchunk.entries]
            groups.append(tree.load_unclustered(subchunk))
            batched = restrict_member_groups(groups, window)
            for group, restricted in zip(groups, batched):
                expected = restrict_members_loop(group, window)
                assert restriction_signature(restricted) == restriction_signature(expected)

    def test_single_list_helper_matches_loop(self, built_tree):
        _mod, tree = built_tree
        window = Period(20.0, 55.0)
        subchunk = tree.subchunks_overlapping(window)[0]
        members = tree.load_unclustered(subchunk)
        assert restriction_signature(
            restrict_members(members, window)
        ) == restriction_signature(restrict_members_loop(members, window))

    def test_empty_groups_pass_through(self, built_tree):
        _mod, tree = built_tree
        window = Period(10.0, 20.0)
        assert restrict_member_groups([[], []], window) == [[], []]
        assert restrict_members([], window) == []


class TestQuTAgainstFromScratch:
    def test_qut_is_faster_than_reclustering_for_small_windows(self, lanes_small):
        from repro.baselines.range_then_cluster import RangeThenCluster

        mod, _ = lanes_small
        tree = ReTraTree.build(mod)
        qut = QuTClustering(tree)
        period = mod.period
        window = Period(period.tmin + 0.4 * period.duration, period.tmin + 0.6 * period.duration)
        qut_result = qut.query(window)
        alt_result = RangeThenCluster(mod).query(window)
        assert qut_result.total_runtime < alt_result.total_runtime

    def test_qut_and_reclustering_find_similar_structure(self, lanes_small):
        from repro.baselines.range_then_cluster import RangeThenCluster

        mod, _ = lanes_small
        tree = ReTraTree.build(mod)
        period = mod.period
        window = Period(period.tmin + 0.2 * period.duration, period.tmin + 0.8 * period.duration)
        qut_result = QuTClustering(tree).query(window)
        alt_result = RangeThenCluster(mod).query(window)
        # Both should find a non-trivial number of clusters on this window.
        assert qut_result.num_clusters > 0
        assert alt_result.num_clusters > 0
