"""Unit tests for the clustering quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.truth import GroundTruth
from repro.eval.metrics import (
    adjusted_rand_index,
    clustering_quality,
    normalized_mutual_information,
    point_level_labels,
)
from repro.s2t.result import Cluster, ClusteringResult
from tests.conftest import make_linear_trajectory


def whole(traj):
    return traj.subtrajectory(0, traj.num_points - 1)


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        assert adjusted_rand_index([1, 1, 2, 2], [5, 5, 9, 9]) == pytest.approx(1.0)

    def test_completely_split_vs_single(self):
        ari = adjusted_rand_index([1, 1, 1, 1], [1, 2, 3, 4])
        assert ari == pytest.approx(0.0, abs=1e-9)

    def test_partial_agreement_between_zero_and_one(self):
        ari = adjusted_rand_index(["a", "a", "a", "b", "b", "b"], [1, 1, 2, 2, 3, 3])
        assert 0.0 < ari < 1.0 or ari == pytest.approx(0.0, abs=0.5)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            adjusted_rand_index([1], [1, 2])

    def test_empty(self):
        assert adjusted_rand_index([], []) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=40))
    def test_self_agreement_is_one_or_degenerate(self, labels):
        ari = adjusted_rand_index(labels, labels)
        assert ari == pytest.approx(1.0) or len(set(labels)) == 1

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=40),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_symmetric(self, labels, seed):
        rng = np.random.default_rng(seed)
        other = list(rng.integers(0, 4, len(labels)))
        assert adjusted_rand_index(labels, other) == pytest.approx(
            adjusted_rand_index(other, labels)
        )


class TestNormalizedMutualInformation:
    def test_identical_labelings(self):
        nmi = normalized_mutual_information([1, 1, 2, 2], [5, 5, 9, 9])
        assert nmi == pytest.approx(1.0)

    def test_independent_labelings_near_zero(self):
        nmi = normalized_mutual_information(
            [0, 0, 1, 1, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1, 0, 1]
        )
        assert nmi == pytest.approx(0.0, abs=1e-9)

    def test_both_single_cluster_counts_as_agreement(self):
        assert normalized_mutual_information([1, 1, 1], [7, 7, 7]) == 1.0

    def test_empty_and_mismatched(self):
        assert normalized_mutual_information([], []) == 0.0
        with pytest.raises(ValueError):
            normalized_mutual_information([1], [1, 2])

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = list(rng.integers(0, 4, 30))
            b = list(rng.integers(0, 3, 30))
            nmi = normalized_mutual_information(a, b)
            assert 0.0 <= nmi <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=40),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_symmetric(self, labels, seed):
        rng = np.random.default_rng(seed)
        other = list(rng.integers(0, 4, len(labels)))
        assert normalized_mutual_information(labels, other) == pytest.approx(
            normalized_mutual_information(other, labels)
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=40))
    def test_self_agreement(self, labels):
        nmi = normalized_mutual_information(labels, labels)
        assert nmi == pytest.approx(1.0)


def perfect_result_and_truth():
    """Two flows of two trajectories each; clustering matches the truth exactly."""
    a0 = whole(make_linear_trajectory("a0", "0", (0, 0), (10, 0)))
    a1 = whole(make_linear_trajectory("a1", "0", (0, 0.5), (10, 0.5)))
    b0 = whole(make_linear_trajectory("b0", "0", (0, 40), (10, 40)))
    b1 = whole(make_linear_trajectory("b1", "0", (0, 40.5), (10, 40.5)))
    noise = whole(make_linear_trajectory("z", "0", (0, 90), (10, 120)))
    result = ClusteringResult(
        method="test",
        clusters=[
            Cluster(cluster_id=0, representative=a0, members=[a0, a1]),
            Cluster(cluster_id=1, representative=b0, members=[b0, b1]),
        ],
        outliers=[noise],
    )
    truth = GroundTruth()
    for key, label in [
        (("a0", "0"), "laneA"),
        (("a1", "0"), "laneA"),
        (("b0", "0"), "laneB"),
        (("b1", "0"), "laneB"),
    ]:
        truth.set_labels(key, np.array([label] * 11, dtype=object))
    truth.set_labels(("z", "0"), np.array([None] * 11, dtype=object))
    return result, truth


class TestClusteringQuality:
    def test_perfect_clustering(self):
        result, truth = perfect_result_and_truth()
        report = clustering_quality(result, truth)
        assert report.ari == pytest.approx(1.0)
        assert report.purity == pytest.approx(1.0)
        assert report.coverage == pytest.approx(1.0)
        assert report.noise_precision == pytest.approx(1.0)
        assert report.noise_recall == pytest.approx(1.0)
        assert report.noise_f1 == pytest.approx(1.0)

    def test_merged_clusters_hurt_ari_not_coverage(self):
        result, truth = perfect_result_and_truth()
        merged = ClusteringResult(
            method="test",
            clusters=[
                Cluster(
                    cluster_id=0,
                    representative=result.clusters[0].representative,
                    members=result.clusters[0].members + result.clusters[1].members,
                )
            ],
            outliers=result.outliers,
        )
        report = clustering_quality(merged, truth)
        assert report.coverage == pytest.approx(1.0)
        assert report.ari < 0.5
        assert report.purity == pytest.approx(0.5)

    def test_everything_outlier_gives_zero_coverage(self):
        result, truth = perfect_result_and_truth()
        all_out = ClusteringResult(
            method="test",
            clusters=[],
            outliers=[m for c in result.clusters for m in c.members] + result.outliers,
        )
        report = clustering_quality(all_out, truth)
        assert report.coverage == 0.0
        assert report.noise_recall == pytest.approx(1.0)
        assert report.noise_precision < 0.5

    def test_joint_ari_counts_each_unclustered_sample_as_a_singleton(self):
        result, truth = perfect_result_and_truth()
        assert clustering_quality(result, truth).joint_ari == pytest.approx(1.0)
        lane_b_dropped = ClusteringResult(
            method="test",
            clusters=result.clusters[:1],
            outliers=[*result.clusters[1].members, *result.outliers],
        )
        report = clustering_quality(lane_b_dropped, truth)
        assert report.ari == pytest.approx(1.0)  # the clustered samples agree
        assert 0.0 < report.joint_ari < 0.6  # half the flow samples are lost
        flows = [flow for labels in truth.labels.values() for flow in labels if flow is not None]
        singles = [("unclustered", i) for i in range(len(flows))]
        assert report.joint_ari == pytest.approx(
            adjusted_rand_index(flows, ["a"] * 22 + singles[22:])
        )
        all_out = ClusteringResult(
            method="test",
            clusters=[],
            outliers=[*result.clusters[0].members, *lane_b_dropped.outliers],
        )
        assert clustering_quality(all_out, truth).joint_ari == 0.0

    def test_report_as_dict_rounding(self):
        result, truth = perfect_result_and_truth()
        data = clustering_quality(result, truth).as_dict()
        assert data["ari"] == 1.0
        assert set(data) == {
            "ari",
            "joint_ari",
            "nmi",
            "purity",
            "coverage",
            "noise_precision",
            "noise_recall",
            "noise_f1",
            "labelled_samples",
        }


class TestPointLevelLabels:
    def test_flattening(self):
        result, _ = perfect_result_and_truth()
        flat = point_level_labels(result)
        assert flat[(("a0", "0"), 0)] == 0
        assert flat[(("b1", "0"), 5)] == 1
        assert flat[(("z", "0"), 3)] is None
        assert len(flat) == 55
