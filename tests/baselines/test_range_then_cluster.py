"""Unit tests for the range-query + fresh-index + S2T alternative."""

import numpy as np

import repro.s2t.pipeline as pipeline
from repro.baselines.range_then_cluster import RangeThenCluster
from repro.hermes.frame import MODFrame
from repro.hermes.types import Period
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.voting import compute_voting
from tests.conftest import membership_signature


class TestRangeThenCluster:
    def test_empty_window(self, lanes_small):
        mod, _ = lanes_small
        result = RangeThenCluster(mod).query(Period(1e9, 2e9))
        assert result.num_clusters == 0
        assert result.num_outliers == 0
        assert "range_query" in result.timings

    def test_full_window_clusters(self, lanes_small):
        mod, _ = lanes_small
        result = RangeThenCluster(mod).query(mod.period)
        assert result.method == "range+s2t"
        assert result.num_clusters > 0
        assert list(result.timings) == [
            "range_query", "voting", "segmentation", "sampling", "clustering"
        ]

    def test_results_restricted_to_window(self, lanes_small):
        mod, _ = lanes_small
        period = mod.period
        window = Period(period.tmin + 0.3 * period.duration, period.tmin + 0.7 * period.duration)
        result = RangeThenCluster(mod).query(window)
        for sub, _cid in result.all_subtrajectories():
            assert sub.period.tmin >= window.tmin - 1e-6
            assert sub.period.tmax <= window.tmax + 1e-6

    def test_narrower_window_means_less_work(self, lanes_small):
        mod, _ = lanes_small
        period = mod.period
        full = RangeThenCluster(mod).query(period)
        narrow = RangeThenCluster(mod).query(
            Period(period.tmin, period.tmin + 0.2 * period.duration)
        )
        assert narrow.extras["num_subtrajectories"] <= full.extras["num_subtrajectories"]

    def test_supplied_frame_and_own_frame_agree(self, lanes_small, monkeypatch):
        """Handed the dataset's frame or a MOD (snapshotted): same memberships, same votes."""
        mod, _ = lanes_small
        profiles = []

        def recording(mod, params, frame=None):
            profiles.append(compute_voting(mod, params, frame=frame))
            return profiles[-1]

        monkeypatch.setattr(pipeline, "compute_voting", recording)
        own = RangeThenCluster(mod)
        supplied = RangeThenCluster(MODFrame.from_mod(mod))
        period = mod.period
        for lo, hi in [(0.0, 1.0), (0.2, 0.5), (0.6, 0.95)]:
            window = Period(period.tmin + lo * period.duration, period.tmin + hi * period.duration)
            a, b = own.query(window), supplied.query(window)
            assert membership_signature(a) == membership_signature(b)
            assert a.num_clusters > 0
            votes_a, votes_b = profiles[-2].votes, profiles[-1].votes
            assert list(votes_a) == list(votes_b)
            assert all(np.array_equal(votes_a[key], votes_b[key]) for key in votes_a)
            # The slice is row-for-row MOD.temporal_range.
            legacy = S2TClustering(S2TParams()).fit(mod.temporal_range(window))
            assert membership_signature(a) == membership_signature(legacy)
        assert len(profiles) == 9

    def test_custom_s2t_params_used(self, lanes_small):
        mod, _ = lanes_small
        result = RangeThenCluster(mod, S2TParams(min_cluster_support=4)).query(mod.period)
        assert all(c.size >= 4 for c in result.clusters)
