"""Integration-level tests of the full S2T pipeline."""


import repro.s2t.clustering as clustering_mod
import repro.s2t.pipeline as pipeline_mod
import repro.s2t.sampling as sampling_mod
from repro.eval.metrics import clustering_quality
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.s2t.clustering import greedy_clustering
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.result import ClusteringResult
from repro.s2t.sampling import select_representatives
from repro.s2t.segmentation import segment_mod
from repro.s2t.voting import compute_voting
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
    """Segmentation gathers one sub-trajectory frame; SaCO reuses it and its rows."""

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
        built, seen, distance_calls = [], [], []

        def spy_segment(real):
            def wrapper(*args):
                built.append(real(*args))
                return built[-1]
            return wrapper

        def spy_phase(real):
            def wrapper(*args):
                seen.append((real.__name__, *(a for a in args if isinstance(a, MODFrame))))
                return real(*args)
            return wrapper

        def counted(real):
            def wrapper(frame, traj, **kwargs):
                distance_calls.append(traj.key)
                return real(frame, traj, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline_mod, "segment_frame", spy_segment(pipeline_mod.segment_frame))
        monkeypatch.setattr(pipeline_mod, "sample", spy_phase(pipeline_mod.sample))
        monkeypatch.setattr(pipeline_mod, "cluster", spy_phase(pipeline_mod.cluster))
        for module in (sampling_mod, clustering_mod):
            monkeypatch.setattr(
                module,
                "spatiotemporal_distance_batch",
                counted(module.spatiotemporal_distance_batch),
            )
        built_before = MODFrame.from_mod_calls
        result = S2TClustering().fit(mod)

        # Segmentation builds the one sub-frame (no dataset frame rebuilt,
        # no frame re-concatenated from the pieces) ...
        [(sub_frame, pieces, masses)] = built
        assert MODFrame.from_mod_calls == built_before + 1
        assert len(sub_frame) == len(pieces) == len(masses) == len(subs)
        # Row i is sub-trajectory i (addressed by position, keys repeat).
        assert sub_frame.keys == [sub.traj.key for sub in subs]
        assert [p.key for p in pieces] == [sub.key for sub in subs]
        # ... and both SaCO phases run on exactly that frame.
        assert seen == [("sample", sub_frame), ("cluster", sub_frame)]
        # One distance row per representative per fit, each computed by
        # sampling and reused by clustering.
        reps = result.extras["num_representatives"]
        assert reps > 1
        assert len(distance_calls) == reps
        assert len(set(distance_calls)) == reps

    def test_shared_frame_equals_phase_built_frames(self, segmented_scenario):
        """``fit`` ≡ segment_mod → select_representatives → greedy_clustering,
        each building its own frame and distance rows (the tracer's calls)."""
        mod, _subs, _masses, _params = segmented_scenario
        fitted = S2TClustering().fit(mod)
        params = S2TParams().resolved(mod)
        profile = compute_voting(mod, params)
        subs, mass, _ = segment_mod(mod, profile, params)
        reps, _ = select_representatives(subs, mass, params)
        standalone, _ = greedy_clustering(subs, reps, params)
        assert self._signature(standalone) == self._signature(fitted)
        assert len(subs) == fitted.extras["num_subtrajectories"]
        assert len(reps) == fitted.extras["num_representatives"]


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
