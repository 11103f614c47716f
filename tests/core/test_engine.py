"""Unit tests for the HermesEngine facade."""

import numpy as np
import pytest

from repro.core.engine import HermesEngine
from repro.datagen import lane_scenario
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from repro.s2t.params import S2TParams

from tests.conftest import run_sql


@pytest.fixture
def engine(lanes_small):
    mod, _ = lanes_small
    engine = HermesEngine.in_memory()
    engine.load_mod("lanes", mod)
    return engine


class TestDatasetManagement:
    def test_load_and_get(self, engine, lanes_small):
        mod, _ = lanes_small
        got = engine.get_mod("lanes")
        assert got.keys() == mod.keys()
        for view, traj in zip(got, mod):
            for column in ("xs", "ys", "ts"):
                assert np.array_equal(getattr(view, column), getattr(traj, column))
        assert engine.datasets() == ["lanes"]

    def test_unknown_dataset_raises_with_hint(self, engine):
        with pytest.raises(KeyError, match="lanes"):
            engine.get_mod("ghost")

    def test_load_csv_and_export_csv(self, engine, tmp_path, lanes_small):
        mod, _ = lanes_small
        path = tmp_path / "out.csv"
        engine.export_csv("lanes", path)
        loaded = engine.load_csv("copy", path)
        assert len(loaded) == len(mod)
        assert "copy" in engine.datasets()

    def test_drop(self, engine):
        engine.retratree("lanes")
        engine.drop("lanes")
        assert engine.datasets() == []

    def test_reload_invalidates_cached_index(self, engine, lanes_small):
        mod, _ = lanes_small
        tree_before = engine.retratree("lanes")
        engine.load_mod("lanes", mod)
        tree_after = engine.retratree("lanes")
        assert tree_before is not tree_after

    def test_dataset_summary(self, engine, lanes_small):
        mod, _ = lanes_small
        summary = engine.dataset_summary("lanes")
        assert summary["trajectories"] == len(mod)
        assert summary["points"] == mod.total_points
        assert summary["tmin"] <= summary["tmax"]


class TestClusteringEntryPoints:
    def test_s2t(self, engine):
        result = engine.s2t("lanes")
        assert result.method == "s2t"
        assert engine.last_result("lanes") is result

    def test_s2t_with_params(self, engine):
        result = engine.s2t("lanes", S2TParams(min_cluster_support=5))
        assert all(c.size >= 5 for c in result.clusters)

    def test_qut_uses_cached_tree(self, engine, lanes_small):
        mod, _ = lanes_small
        period = mod.period
        window = Period(period.tmin, period.tmin + period.duration / 2)
        first = engine.qut("lanes", window)
        tree = engine.retratree("lanes")
        second = engine.qut("lanes", window)
        assert engine.retratree("lanes") is tree
        assert first.num_clusters == second.num_clusters

    def test_retratree_rebuild_flag(self, engine):
        tree = engine.retratree("lanes")
        assert engine.retratree("lanes", rebuild=True) is not tree

    def test_range_then_cluster(self, engine, lanes_small):
        mod, _ = lanes_small
        result = engine.range_then_cluster("lanes", mod.period)
        assert result.method == "range+s2t"

    def test_baseline_entry_points(self, engine):
        assert engine.traclus("lanes").method == "traclus"
        assert engine.toptics("lanes").method == "t-optics"
        assert engine.convoy("lanes").method == "convoy"

    def test_last_result_requires_prior_run(self, engine):
        with pytest.raises(KeyError):
            HermesEngine.in_memory().last_result("lanes")

    def test_on_disk_engine_builds_disk_partitions(self, tmp_path, lanes_small):
        mod, _ = lanes_small
        engine = HermesEngine.on_disk(tmp_path / "engine")
        engine.load_mod("lanes", mod)
        tree = engine.retratree("lanes")
        assert any(p.on_disk for p in tree.storage.partitions())
        assert (tmp_path / "engine" / "lanes").exists()


class TestFrameCatalog:
    def test_frame_is_cached(self, engine):
        assert engine.frame("lanes") is engine.frame("lanes")

    def test_frame_built_at_most_once_per_fit(self, engine):
        from repro.hermes.frame import MODFrame

        engine.frame("lanes")  # warm the catalog
        before = MODFrame.from_mod_calls
        engine.s2t("lanes")
        engine.s2t("lanes")
        # With a warm catalog no fit rebuilds the dataset frame.
        assert MODFrame.from_mod_calls == before

    def test_cold_catalog_builds_once_for_everything(self, lanes_small):
        from repro.hermes.frame import MODFrame

        mod, _ = lanes_small
        engine = HermesEngine.in_memory()
        before = MODFrame.from_mod_calls
        engine.load_mod("lanes", mod)  # the one snapshot: the dataset's frame
        engine.s2t("lanes")
        engine.range_then_cluster("lanes", mod.period)
        assert MODFrame.from_mod_calls == before + 1

    def test_load_mod_invalidates_frame(self, engine, lanes_small):
        mod, _ = lanes_small
        frame = engine.frame("lanes")
        engine.load_mod("lanes", mod)
        assert engine.frame("lanes") is not frame

    def test_drop_invalidates_frame(self, engine, lanes_small):
        mod, _ = lanes_small
        frame = engine.frame("lanes")
        engine.drop("lanes")
        engine.load_mod("lanes", mod)
        assert engine.frame("lanes") is not frame

    def test_generation_bumps_on_mutation(self, engine, lanes_small):
        mod, _ = lanes_small
        g0 = engine.dataset_generation("lanes")
        engine.load_mod("lanes", mod)
        g1 = engine.dataset_generation("lanes")
        assert g1 > g0
        engine.drop("lanes")
        assert engine.dataset_generation("lanes") > g1


class TestUnifiedInvalidation:
    def test_load_query_drop_reload_query(self, lanes_small, flights_small):
        """The regression sequence of the cache-unification satellite."""
        lanes, _ = lanes_small
        flights, _ = flights_small

        engine = HermesEngine.in_memory()
        engine.load_mod("data", lanes)
        first = run_sql(engine, "SELECT S2T(data)")
        assert first[-1]["cluster_id"] == "outliers"
        engine.retratree("data")

        engine.drop("data")
        assert engine.datasets() == []

        engine.load_mod("data", flights)
        second = run_sql(engine, "SELECT SUMMARY(data)")
        assert second[0]["trajectories"] == len(flights)
        third = run_sql(engine, "SELECT S2T(data)")
        assert third[-1]["cluster_id"] == "outliers"
        # The frame and tree now describe the reloaded dataset.
        assert len(engine.frame("data")) == len(flights)
        assert engine.retratree("data").stats.trajectories_inserted == len(flights)

    def test_drop_clears_sql_buffered_state(self, lanes_small):
        lanes, _ = lanes_small
        engine = HermesEngine.in_memory()
        run_sql(engine, "CREATE DATASET scratch")
        run_sql(engine, "INSERT INTO scratch VALUES ('a', '0', 0.0, 0.0, 0.0)")
        engine.drop("scratch")
        # Recreate: the single buffered point of the dropped incarnation
        # must not leak into the new one.
        run_sql(engine, "CREATE DATASET scratch")
        run_sql(engine, "INSERT INTO scratch VALUES ('b', '0', 1.0, 1.0, 1.0)")
        run_sql(engine, "INSERT INTO scratch VALUES ('b', '0', 2.0, 2.0, 2.0)")
        rows = run_sql(engine, "SELECT obj_id FROM scratch")
        assert {row["obj_id"] for row in rows} == {"b"}


class TestRegisteredDatasetIsASnapshot:
    """``load_mod`` registers a snapshot: changing the caller's MOD afterwards
    reaches no answer, warm or after a cold reopen."""

    @staticmethod
    def answers(engine) -> tuple:
        return (
            run_sql(engine, "SELECT SUMMARY(d)"),
            run_sql(engine, "SELECT COUNT(*) FROM d"),
            run_sql(engine, "SELECT S2T(d)"),
        )

    @pytest.mark.parametrize("durable", [False, True], ids=["in_memory", "on_disk"])
    def test_adding_to_the_loaded_mod_changes_no_answer(self, tmp_path, durable):
        lanes, _ = lane_scenario(n_trajectories=10, seed=4)
        reference = HermesEngine.in_memory()
        reference.load_mod("d", MOD(name="d", trajectories=lanes.trajectories()))
        expected = self.answers(reference)
        assert expected[0][0]["trajectories"] == 10
        assert expected[1] == [{"count": lanes.total_points}]

        engine = HermesEngine.on_disk(tmp_path / "store") if durable else HermesEngine.in_memory()
        mod = MOD(name="d", trajectories=lanes.trajectories())
        engine.load_mod("d", mod)
        mod.add(Trajectory("late", "0", [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]))
        assert self.answers(engine) == expected
        if durable:
            engine.close()
            assert self.answers(HermesEngine.on_disk(tmp_path / "store")) == expected
