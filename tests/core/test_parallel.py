"""Tests for the partition-parallel S2T scheduler."""

import pytest

from repro.core.engine import HermesEngine
from repro.core.parallel import (
    DEFAULT_PARTITIONS,
    merge_partition_results,
    partitioned_s2t,
)
from repro.datagen import aircraft_scenario, lane_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.s2t.params import S2TParams
from tests.conftest import membership_signature


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("scenario_kwargs", [
        dict(maker="lanes"),
        dict(maker="aircraft"),
    ])
    def test_n_jobs_4_matches_serial(self, scenario_kwargs):
        if scenario_kwargs["maker"] == "lanes":
            mod, _ = lane_scenario(n_trajectories=24, n_lanes=3, n_samples=40, seed=11)
        else:
            mod, _ = aircraft_scenario(n_trajectories=30, n_samples=50, seed=5)
        serial = partitioned_s2t(mod, n_jobs=1)
        parallel = partitioned_s2t(mod, n_jobs=4)
        assert membership_signature(serial) == membership_signature(parallel)

    def test_partition_layout_independent_of_n_jobs(self, lanes_small):
        mod, _ = lanes_small
        for jobs in (1, 2, 4):
            result = partitioned_s2t(mod, n_jobs=jobs)
            assert result.extras["n_partitions"] == DEFAULT_PARTITIONS
            assert result.extras["partition_bounds"][0][0] == mod.period.tmin
            assert result.extras["partition_bounds"][-1][1] == mod.period.tmax


class TestSchedulerMechanics:
    def test_empty_mod(self):
        result = partitioned_s2t(MOD(name="empty"), n_jobs=4)
        assert result.num_clusters == 0
        assert result.num_outliers == 0

    def test_gap_scenario_empty_partitions(self):
        """The sparse-dataset satellite: temporal partitions with zero
        trajectories contribute no clusters, never shift cluster-id
        renumbering, and leave the serial/parallel equivalence intact."""
        import numpy as np

        from repro.hermes.trajectory import Trajectory

        def burst(prefix, t0, t1, n_objects=6):
            out = []
            for i in range(n_objects):
                ts = np.linspace(t0, t1, 30)
                out.append(
                    Trajectory(
                        f"{prefix}{i}", "0", np.linspace(0, 10, 30),
                        np.full(30, 0.1 * i), ts,
                    )
                )
            return out

        # Two co-moving bursts separated by a long gap: with the default
        # four temporal partitions, the middle two are empty.
        mod = MOD(name="gappy")
        for traj in burst("early", 0.0, 100.0) + burst("late", 900.0, 1000.0):
            mod.add(traj)

        serial = partitioned_s2t(mod, n_jobs=1)
        assert serial.extras["partitions_empty"] == 2
        assert serial.extras["partitions_fitted"] == 2
        # One cluster per burst, densely renumbered despite the gap.
        assert serial.num_clusters == 2
        assert [c.cluster_id for c in serial.clusters] == [0, 1]
        early, late = serial.clusters
        assert all(m.obj_id.startswith("early") for m in early.members)
        assert all(m.obj_id.startswith("late") for m in late.members)

        parallel = partitioned_s2t(mod, n_jobs=4)
        assert membership_signature(serial) == membership_signature(parallel)
        assert parallel.extras["partitions_empty"] == 2

    def test_prebuilt_frame_is_not_rebuilt(self, lanes_small):
        mod, _ = lanes_small
        frame = MODFrame.from_mod(mod)
        before = MODFrame.from_mod_calls
        partitioned_s2t(frame, n_jobs=1)
        assert MODFrame.from_mod_calls == before

    def test_cluster_ids_renumbered_densely(self, lanes_small):
        mod, _ = lanes_small
        result = partitioned_s2t(mod, n_jobs=2)
        assert [c.cluster_id for c in result.clusters] == list(range(result.num_clusters))

    def test_timings_aggregate_all_phases(self, lanes_small):
        mod, _ = lanes_small
        result = partitioned_s2t(mod, n_jobs=1)
        for phase in ("voting", "segmentation", "sampling", "clustering"):
            assert phase in result.timings
            assert result.timings[phase] >= 0.0

    def test_custom_partition_count(self, lanes_small):
        mod, _ = lanes_small
        two = partitioned_s2t(mod, n_partitions=2)
        assert two.extras["n_partitions"] == 2
        assert two.extras["partitions_fitted"] <= 2

    def test_merge_offsets_cluster_ids(self, lanes_small):
        mod, _ = lanes_small
        params = S2TParams().resolved(mod)
        frame = MODFrame.from_mod(mod)
        periods = mod.period.split(2)
        from repro.core.parallel import _fit_partition

        parts = [
            _fit_partition((frame.slice_period(p), params)) for p in periods
        ]
        merged = merge_partition_results(parts, params)
        assert merged.num_clusters == sum(p.num_clusters for p in parts)
        assert merged.num_outliers == sum(p.num_outliers for p in parts)
        assert [c.cluster_id for c in merged.clusters] == list(range(merged.num_clusters))


class TestEngineIntegration:
    def test_engine_s2t_n_jobs(self, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", mod)
        serial = engine.s2t("lanes", n_jobs=1)
        # Whole-MOD serial fit: no partitioning metadata.
        assert "execution" not in serial.extras
        parallel = engine.s2t("lanes", n_jobs=2)
        assert parallel.extras["execution"] == "partitioned"
        assert engine.last_result("lanes") is parallel

    def test_params_n_jobs_selects_scheduler(self, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", mod)
        result = engine.s2t("lanes", S2TParams(n_jobs=2))
        assert result.extras["execution"] == "partitioned"

    def test_n_jobs_validation(self):
        with pytest.raises(ValueError, match="n_jobs"):
            S2TParams(n_jobs=0)

    def test_explicit_n_jobs_validated_everywhere(self, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.in_memory()
        engine.load_mod("lanes", mod)
        with pytest.raises(ValueError, match="n_jobs"):
            engine.s2t("lanes", n_jobs=0)
        with pytest.raises(ValueError, match="n_jobs"):
            partitioned_s2t(mod, n_jobs=-3)

    def test_engine_pool_reused_across_calls(self, lanes_small):
        """Regression: consecutive parallel fits must share ONE executor.

        The engine owns a persistent WorkerPool; two ``n_jobs=4`` runs must
        not fork a second ProcessPoolExecutor (``created`` counts spin-ups).
        """
        mod, _ = lanes_small
        engine = HermesEngine.in_memory()
        try:
            engine.load_mod("lanes", mod)
            first = engine.s2t("lanes", n_jobs=4)
            second = engine.s2t("lanes", n_jobs=4)
            assert first.extras["execution"] == "partitioned"
            assert second.extras["execution"] == "partitioned"
            assert engine.pool().created == 1
        finally:
            engine.close()
        # close() tears the pool down; the next request starts a fresh one.
        assert engine._worker_pool is None

    def test_pooled_calls_outlive_the_worker_attach_cache(self, lanes_small):
        """Regression: the fifth pooled S2T on one engine raised BufferError.

        Each call publishes a fresh segment, so the workers' attach cache
        (``_ATTACH_CACHE_LIMIT`` entries) starts evicting on the fifth call;
        the eviction used to keep the stale frame alive while closing its
        mapping (``cannot close exported pointers exist``).
        """
        import repro
        from repro.core.parallel import _ATTACH_CACHE_LIMIT
        from repro.hermes.shm import default_arena
        from tests.hermes.test_shm import _segment_listing

        mod, _ = lanes_small
        calls = _ATTACH_CACHE_LIMIT + 3
        assert calls >= 6
        before = _segment_listing()
        conn = repro.connect()
        try:
            conn.engine.load_mod("lanes", mod)
            results = [
                conn.execute(
                    "SELECT S2T('lanes', NULL, NULL, 2, 'batched', 2, 4)"
                ).fetchall()
                for _ in range(calls)
            ]
            assert conn.engine.pool().created == 1
            last = conn.engine.last_result("lanes")
        finally:
            conn.close()
        assert results[0]
        assert all(rows == results[0] for rows in results[1:])
        # Every call really ran on the pool (no silent serial fallback).
        assert last.extras["n_jobs"] == 2
        assert "pool_error" not in last.extras
        assert _segment_listing() - before == set()
        assert default_arena().live_segments() == []

    def test_merged_extras_keep_voting_metadata(self, lanes_small):
        mod, _ = lanes_small
        result = partitioned_s2t(mod, n_jobs=1)
        assert "voting_strategy" not in result.extras
        assert result.extras["voting_pairs_evaluated"] > 0
        assert result.extras["voting_pairs_pruned"] >= 0
