"""Unit tests for SaCO greedy clustering and outlier detection."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.distances import spatiotemporal_distance_batch
from repro.hermes.frame import MODFrame
from repro.s2t.clustering import cluster, greedy_clustering
from repro.s2t.params import S2TParams
from repro.s2t.sampling import select_representatives
from tests.conftest import make_linear_trajectory
from tests.qut.oracles import assign_to_representatives
from tests.s2t.conftest import saco_candidates


def whole(traj):
    return traj.subtrajectory(0, traj.num_points - 1)


@pytest.fixture
def lane_subs():
    """Two lanes of three sub-trajectories each plus one wanderer."""
    lane1 = [
        whole(make_linear_trajectory(f"a{i}", "0", (0, i * 0.3), (10, i * 0.3)))
        for i in range(3)
    ]
    lane2 = [
        whole(make_linear_trajectory(f"b{i}", "0", (0, 40 + i * 0.3), (10, 40 + i * 0.3)))
        for i in range(3)
    ]
    outlier = whole(make_linear_trajectory("w", "0", (0, 90), (10, 120)))
    return lane1, lane2, outlier


class TestAssignToRepresentatives:
    def test_closest_representative_chosen(self, lane_subs):
        lane1, lane2, _ = lane_subs
        reps = [lane1[0], lane2[0]]
        idx, dist = assign_to_representatives(lane1[2], reps, eps=2.0)
        assert idx == 0
        assert dist == pytest.approx(0.6, rel=0.05)

    def test_too_far_returns_none(self, lane_subs):
        lane1, _, outlier = lane_subs
        idx, dist = assign_to_representatives(outlier, [lane1[0]], eps=2.0)
        assert idx is None
        assert dist > 2.0

    def test_no_temporal_overlap_unreachable(self):
        early = whole(make_linear_trajectory("e", "0", t0=0, t1=10))
        late = whole(make_linear_trajectory("l", "0", t0=100, t1=110))
        idx, dist = assign_to_representatives(early, [late], eps=100.0)
        assert idx is None and math.isinf(dist)

    def test_temporal_tolerance_is_a_gate_not_a_bridge(self):
        # Tolerance allows *nearly* overlapping lifespans to be considered,
        # but the synchronous distance of fully disjoint ones is still inf.
        early = whole(make_linear_trajectory("e", "0", t0=0, t1=10))
        late = whole(make_linear_trajectory("l", "0", t0=12, t1=22))
        idx_no_tol, _ = assign_to_representatives(early, [late], eps=100.0, temporal_tolerance=0.0)
        assert idx_no_tol is None


class TestGreedyClustering:
    def test_two_lanes_two_clusters(self, lane_subs, small_mod):
        lane1, lane2, outlier = lane_subs
        subs = lane1 + lane2 + [outlier]
        reps = [lane1[0], lane2[0]]
        params = S2TParams(eps=2.0, coverage_radius=4.0, min_cluster_support=2).resolved(small_mod)
        result, elapsed = greedy_clustering(subs, reps, params)
        assert result.num_clusters == 2
        assert {m.obj_id for m in result.clusters[0].members} == {"a0", "a1", "a2"}
        assert {m.obj_id for m in result.clusters[1].members} == {"b0", "b1", "b2"}
        assert [o.obj_id for o in result.outliers] == ["w"]
        assert elapsed >= 0.0

    def test_representative_belongs_to_its_cluster(self, lane_subs, small_mod):
        lane1, lane2, _ = lane_subs
        reps = [lane1[0], lane2[0]]
        params = S2TParams(eps=2.0, coverage_radius=4.0).resolved(small_mod)
        result, _ = greedy_clustering(lane1 + lane2, reps, params)
        for cluster in result.clusters:
            assert cluster.representative in cluster.members

    def test_min_support_dissolves_small_clusters(self, lane_subs, small_mod):
        lane1, lane2, outlier = lane_subs
        # Only one member near the second representative -> dissolved.
        subs = lane1 + [lane2[0]] + [outlier]
        reps = [lane1[0], lane2[0]]
        params = S2TParams(eps=2.0, coverage_radius=4.0, min_cluster_support=2).resolved(small_mod)
        result, _ = greedy_clustering(subs, reps, params)
        assert result.num_clusters == 1
        assert {o.obj_id for o in result.outliers} == {"b0", "w"}

    def test_cluster_ids_are_dense(self, lane_subs, small_mod):
        lane1, lane2, outlier = lane_subs
        subs = lane1 + [lane2[0]] + [outlier]
        reps = [lane1[0], lane2[0]]
        params = S2TParams(eps=2.0, coverage_radius=4.0, min_cluster_support=2).resolved(small_mod)
        result, _ = greedy_clustering(subs, reps, params)
        assert [c.cluster_id for c in result.clusters] == list(range(result.num_clusters))

    def test_no_representatives_everything_is_outlier(self, lane_subs, small_mod):
        lane1, lane2, outlier = lane_subs
        subs = lane1 + lane2 + [outlier]
        params = S2TParams(eps=2.0, coverage_radius=4.0).resolved(small_mod)
        result, _ = greedy_clustering(subs, [], params)
        assert result.num_clusters == 0
        assert result.num_outliers == len(subs)


def _greedy_clustering_scalar(subtrajectories, representatives, params):
    """Memberships and outliers via the scalar ``assign_to_representatives``
    reference, one sub-trajectory at a time (the identity oracle)."""
    members = [[rep.key] for rep in representatives]
    rep_keys = {rep.key for rep in representatives}
    outliers = []
    for sub in subtrajectories:
        if sub.key in rep_keys:
            continue
        idx, _dist = assign_to_representatives(
            sub, representatives, params.eps, params.temporal_tolerance
        )
        if idx is None:
            outliers.append(sub.key)
        else:
            members[idx].append(sub.key)
    surviving = []
    for keys in members:
        if len(keys) >= params.min_cluster_support:
            surviving.append(keys)
        else:
            outliers.extend(keys)
    return surviving, outliers


def _signature(result):
    assert [c.cluster_id for c in result.clusters] == list(range(result.num_clusters))
    return (
        [[member.key for member in cluster.members] for cluster in result.clusters],
        [outlier.key for outlier in result.outliers],
    )


class TestFlippedAssignmentMatchesScalarReference:
    """One batch call per representative ≡ one scalar scan per sub-trajectory."""

    @pytest.mark.parametrize("tolerance", [0.0, 30.0])
    def test_on_every_scenario(self, segmented_scenario, tolerance):
        mod, subs, masses, _ = segmented_scenario
        params = S2TParams(temporal_tolerance=tolerance).resolved(mod)
        reps, _ = select_representatives(subs, masses, params)
        result, _ = greedy_clustering(subs, reps, params)
        assert result.num_clusters > 1
        assert _signature(result) == _greedy_clustering_scalar(subs, reps, params)

    @settings(max_examples=150, deadline=None)
    @given(
        saco_candidates(min_size=2),
        st.lists(st.integers(min_value=0, max_value=11), max_size=5, unique=True),
        st.sampled_from([0.0, 15.0]),
        st.sampled_from([0.5, 4.0, 40.0]),
        st.sampled_from([1, 2, 3]),
    )
    def test_on_generated_edge_cases(self, candidates, picks, tolerance, eps, support):
        subs, _masses = candidates
        # Representatives in drawn order; duplicates of one another are
        # equidistant from everything, so the first listed must win the tie.
        reps = [subs[i] for i in picks if i < len(subs)]
        params = S2TParams(
            sigma=1.0, eps=eps, coverage_radius=2.0 * eps,
            temporal_tolerance=tolerance, min_cluster_support=support,
        )
        result, _ = greedy_clustering(subs, reps, params)
        assert _signature(result) == _greedy_clustering_scalar(subs, reps, params)

    def test_equidistant_representatives_first_selected_wins(self, small_mod):
        rep_a = whole(make_linear_trajectory("ra", "0", (0, 0), (10, 0)))
        rep_b = whole(make_linear_trajectory("rb", "0", (0, 0), (10, 0)))
        sub = whole(make_linear_trajectory("s", "0", (0, 0.5), (10, 0.5)))
        params = S2TParams(eps=2.0, coverage_radius=4.0, min_cluster_support=1).resolved(small_mod)
        for reps in ([rep_a, rep_b], [rep_b, rep_a]):
            result, _ = greedy_clustering([rep_a, rep_b, sub], reps, params)
            assert [m.obj_id for m in result.clusters[0].members] == [reps[0].obj_id, "s"]
            assert [m.obj_id for m in result.clusters[1].members] == [reps[1].obj_id]

    def test_prebuilt_frame_gives_the_same_clusters(self, segmented_scenario):
        """``cluster`` over a frame built apart from the pieces is ``greedy_clustering``."""
        _mod, subs, masses, params = segmented_scenario
        reps, _ = select_representatives(subs, masses, params)
        frame = MODFrame.from_trajectories(sub.traj for sub in subs)
        row_of = {sub.key: row for row, sub in enumerate(subs)}
        rows = (spatiotemporal_distance_batch(frame, rep.traj, max_samples=32) for rep in reps)
        shared = cluster(subs, [row_of[rep.key] for rep in reps], rows, params, frame)
        own, _ = greedy_clustering(subs, reps, params)
        assert _signature(shared) == _signature(own)
