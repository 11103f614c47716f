"""Integration-level tests of the full S2T pipeline."""


import repro.s2t.pipeline as pipeline_mod
from repro.eval.metrics import clustering_quality
from repro.hermes.mod import MOD
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.result import ClusteringResult
from tests.conftest import make_linear_trajectory


class TestPipelineOnToyData:
    def test_empty_mod(self):
        result = S2TClustering().fit(MOD())
        assert result.num_clusters == 0
        assert result.num_outliers == 0

    def test_two_flows_and_an_outlier(self):
        mod = MOD()
        for i in range(4):
            mod.add(make_linear_trajectory(f"a{i}", "0", (0, i * 0.3), (10, i * 0.3)))
        for i in range(4):
            mod.add(make_linear_trajectory(f"b{i}", "0", (0, 40 + i * 0.3), (10, 40 + i * 0.3)))
        mod.add(make_linear_trajectory("w", "0", (0, 90), (30, 120)))
        result = S2TClustering(S2TParams(sigma=1.0, eps=2.0, min_cluster_support=2)).fit(mod)
        assert result.num_clusters == 2
        clustered_objects = {
            frozenset(c.object_ids()) for c in result.clusters
        }
        assert frozenset({"a0", "a1", "a2", "a3"}) in clustered_objects
        assert frozenset({"b0", "b1", "b2", "b3"}) in clustered_objects
        assert all(o.obj_id == "w" for o in result.outliers)

    def test_timings_and_extras_recorded(self, small_mod):
        result = S2TClustering().fit(small_mod)
        # Exact keys: the e2e trace and the BENCH_* writers read them by name.
        assert list(result.timings) == ["voting", "segmentation", "sampling", "clustering"]
        assert list(result.extras) == [
            "num_subtrajectories",
            "num_representatives",
            "voting_strategy",
            "voting_pairs_evaluated",
            "voting_pairs_pruned",
        ]
        assert all(v >= 0 for v in result.timings.values())
        assert result.extras["num_subtrajectories"] >= len(small_mod)
        assert result.extras["num_representatives"] >= result.num_clusters

    def test_result_accounts_for_every_subtrajectory(self, small_mod):
        result = S2TClustering().fit(small_mod)
        assert result.num_clustered + result.num_outliers == result.extras["num_subtrajectories"]


class TestSharedSubTrajectoryFrame:
    """SaCO runs on one sub-trajectory frame; sharing it changes nothing."""

    @staticmethod
    def _signature(result: ClusteringResult):
        return (
            [c.cluster_id for c in result.clusters],
            [c.representative.key for c in result.clusters],
            [[m.key for m in c.members] for c in result.clusters],
            [o.key for o in result.outliers],
        )

    def test_fit_hands_one_frame_to_both_phases(self, segmented_scenario, monkeypatch):
        mod, subs, _masses, _params = segmented_scenario
        seen = []

        def spy(real):
            def wrapper(*args, frame=None, **kwargs):
                seen.append(frame)
                return real(*args, frame=frame, **kwargs)
            return wrapper

        monkeypatch.setattr(
            pipeline_mod, "select_representatives", spy(pipeline_mod.select_representatives)
        )
        monkeypatch.setattr(
            pipeline_mod, "greedy_clustering", spy(pipeline_mod.greedy_clustering)
        )
        S2TClustering().fit(mod)
        sampling_frame, clustering_frame = seen
        assert sampling_frame is not None and sampling_frame is clustering_frame
        # Row i is sub-trajectory i (addressed by position, keys repeat).
        assert len(sampling_frame) == len(subs)
        assert sampling_frame.keys == [sub.traj.key for sub in subs]

    def test_shared_frame_equals_phase_built_frames(self, segmented_scenario, monkeypatch):
        mod, _subs, _masses, _params = segmented_scenario
        shared = S2TClustering().fit(mod)

        def without_frame(real):
            return lambda *args, frame=None, **kwargs: real(*args, **kwargs)

        monkeypatch.setattr(
            pipeline_mod,
            "select_representatives",
            without_frame(pipeline_mod.select_representatives),
        )
        monkeypatch.setattr(
            pipeline_mod, "greedy_clustering", without_frame(pipeline_mod.greedy_clustering)
        )
        own = S2TClustering().fit(mod)
        assert self._signature(own) == self._signature(shared)
        assert own.extras == shared.extras


class TestPipelineOnScenarios:
    def test_lane_scenario_recovers_flows(self, lanes_small):
        mod, truth = lanes_small
        result = S2TClustering().fit(mod)
        assert result.num_clusters >= 3
        quality = clustering_quality(result, truth)
        assert quality.purity > 0.7
        assert quality.coverage > 0.5

    def test_deterministic_given_same_input(self, lanes_small):
        mod, _ = lanes_small
        a = S2TClustering().fit(mod)
        b = S2TClustering().fit(mod)
        assert a.num_clusters == b.num_clusters
        assert [c.size for c in a.clusters] == [c.size for c in b.clusters]
        assert [c.representative.key for c in a.clusters] == [
            c.representative.key for c in b.clusters
        ]

    def test_greedy_segmentation_variant_runs(self, lanes_small):
        mod, _ = lanes_small
        result = S2TClustering(S2TParams(segmentation_method="greedy")).fit(mod)
        assert isinstance(result, ClusteringResult)
        assert result.num_clusters > 0

    def test_larger_eps_gives_fewer_or_equal_outliers(self, lanes_small):
        mod, _ = lanes_small
        diag = (mod.bbox.dx**2 + mod.bbox.dy**2) ** 0.5
        tight = S2TClustering(S2TParams(eps=0.02 * diag)).fit(mod)
        loose = S2TClustering(S2TParams(eps=0.15 * diag)).fit(mod)
        assert loose.num_outliers <= tight.num_outliers

    def test_point_assignments_cover_only_parent_samples(self, lanes_small):
        mod, _ = lanes_small
        result = S2TClustering().fit(mod)
        assignments = result.point_assignments()
        for key, per_sample in assignments.items():
            parent = mod.get(key)
            assert all(0 <= idx < parent.num_points for idx in per_sample)
