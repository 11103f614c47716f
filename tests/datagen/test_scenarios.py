"""Unit tests for the synthetic scenario generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    GroundTruth,
    aircraft_scenario,
    lane_scenario,
    maritime_scenario,
    orbit_scenario,
    urban_scenario,
)
from repro.datagen.paths import Path, circle_path, concatenate_paths
from repro.hermes.frame import MODFrame


class TestPaths:
    def test_path_needs_two_waypoints(self):
        with pytest.raises(ValueError):
            Path(np.array([[0.0, 0.0]]))

    def test_length_and_sampling(self):
        path = Path(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]]))
        assert path.length == pytest.approx(20.0)
        samples = path.sample(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(samples[0], [0, 0])
        np.testing.assert_allclose(samples[1], [10, 0])
        np.testing.assert_allclose(samples[2], [10, 10])

    def test_sample_clipped_to_unit_interval(self):
        path = Path(np.array([[0.0, 0.0], [10.0, 0.0]]))
        samples = path.sample(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(samples[0], [0, 0])
        np.testing.assert_allclose(samples[1], [10, 0])

    def test_reversed(self):
        path = Path(np.array([[0.0, 0.0], [10.0, 0.0]]))
        np.testing.assert_allclose(path.reversed().sample(np.array([0.0]))[0], [10, 0])

    def test_circle_path_radius(self):
        loop = circle_path((5.0, 5.0), radius=2.0, n_turns=1.0)
        dists = np.hypot(loop.waypoints[:, 0] - 5.0, loop.waypoints[:, 1] - 5.0)
        np.testing.assert_allclose(dists, 2.0)

    def test_concatenate(self):
        a = Path(np.array([[0.0, 0.0], [1.0, 0.0]]))
        b = Path(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert concatenate_paths(a, b).length == pytest.approx(2.0)
        with pytest.raises(ValueError):
            concatenate_paths()


ALL_SCENARIOS = [
    lambda seed: lane_scenario(n_trajectories=20, seed=seed),
    lambda seed: aircraft_scenario(n_trajectories=20, seed=seed),
    lambda seed: urban_scenario(n_trajectories=20, seed=seed),
    lambda seed: maritime_scenario(n_trajectories=20, seed=seed),
    lambda seed: orbit_scenario(n_trajectories=20, seed=seed),
]


class TestScenarioContracts:
    @pytest.mark.parametrize("factory", ALL_SCENARIOS)
    def test_requested_size_and_truth_alignment(self, factory):
        mod, truth = factory(3)
        assert len(mod) == 20
        assert isinstance(truth, GroundTruth)
        for traj in mod:
            labels = truth.labels_for(traj.key)
            assert len(labels) == traj.num_points

    @pytest.mark.parametrize("factory", ALL_SCENARIOS)
    def test_deterministic_for_fixed_seed(self, factory):
        mod_a, _ = factory(7)
        mod_b, _ = factory(7)
        for key in mod_a.keys():
            np.testing.assert_array_equal(mod_a.get(key).xs, mod_b.get(key).xs)
            np.testing.assert_array_equal(mod_a.get(key).ts, mod_b.get(key).ts)

    @pytest.mark.parametrize("factory", ALL_SCENARIOS)
    def test_different_seeds_differ(self, factory):
        mod_a, _ = factory(1)
        mod_b, _ = factory(2)
        some_key = mod_a.keys()[0]
        assert not np.array_equal(mod_a.get(some_key).xs, mod_b.get(some_key).xs)

    @pytest.mark.parametrize("factory", ALL_SCENARIOS)
    def test_contains_flows_and_noise(self, factory):
        _, truth = factory(5)
        flows = truth.flow_ids()
        assert len(flows) >= 2
        has_noise = any(
            any(lbl is None for lbl in labels) for labels in truth.labels.values()
        )
        assert has_noise


class TestLaneScenarioSpecifics:
    def test_switchers_change_label_mid_trajectory(self):
        _, truth = lane_scenario(n_trajectories=30, switcher_fraction=0.4, seed=2)
        switchers = 0
        for labels in truth.labels.values():
            distinct = {lbl for lbl in labels if lbl is not None}
            if len(distinct) >= 2:
                switchers += 1
        assert switchers > 0

    def test_outlier_fraction_respected(self):
        _, truth = lane_scenario(n_trajectories=40, outlier_fraction=0.25, seed=4)
        outliers = sum(
            1 for labels in truth.labels.values() if all(lbl is None for lbl in labels)
        )
        assert outliers == 10


class TestAircraftScenarioSpecifics:
    def test_holding_fraction_zero_means_no_loops(self):
        from repro.va.patterns import detect_holding_patterns

        mod_without, _ = aircraft_scenario(n_trajectories=30, holding_fraction=0.0, seed=9)
        mod_with, _ = aircraft_scenario(n_trajectories=30, holding_fraction=0.6, seed=9)
        assert len(detect_holding_patterns(mod_with)) > len(detect_holding_patterns(mod_without))

    def test_corridor_count_reflected_in_truth(self):
        _, truth = aircraft_scenario(n_trajectories=30, n_corridors=4, seed=1)
        assert len([f for f in truth.flow_ids() if f.startswith("corridor")]) <= 4


class TestUrbanScenarioSpecifics:
    def test_route_count_tracks_grid_size(self):
        _, truth = urban_scenario(n_trajectories=40, grid_size=4, seed=6)
        routes = {f for f in truth.flow_ids() if f.startswith("route")}
        assert 2 <= len(routes) <= 4

    def test_vehicles_stay_near_their_route(self):
        """Lateral noise is 5% of a grid cell, so same-route vehicles
        overlap far more tightly than cross-route ones."""
        mod, truth = urban_scenario(n_trajectories=40, grid_size=4, seed=6)
        by_route: dict[str, list] = {}
        for traj in mod:
            labels = truth.labels_for(traj.key)
            flows = {lbl for lbl in labels if lbl is not None}
            if len(flows) == 1:
                by_route.setdefault(flows.pop(), []).append(traj)
        for trajs in by_route.values():
            if len(trajs) < 2:
                continue
            # Every vehicle on a route crosses the same turn corner.
            ys = [float(np.median(t.ys[: t.num_points // 2])) for t in trajs]
            assert max(ys) - min(ys) < 50.0 * 0.3

    def test_outliers_carry_none_labels(self):
        _, truth = urban_scenario(n_trajectories=40, outlier_fraction=0.25, seed=3)
        all_none = sum(
            1 for labels in truth.labels.values() if all(lbl is None for lbl in labels)
        )
        assert all_none == 10


class TestMaritimeScenarioSpecifics:
    def test_lane_count_reflected_in_truth(self):
        _, truth = maritime_scenario(n_trajectories=40, n_lanes=4, seed=1)
        lanes = {f for f in truth.flow_ids() if f.startswith("lane")}
        assert 2 <= len(lanes) <= 4

    def test_vessels_traverse_most_of_the_area(self):
        mod, truth = maritime_scenario(n_trajectories=30, area=500.0, seed=2)
        for traj in mod:
            labels = truth.labels_for(traj.key)
            if any(lbl is not None for lbl in labels):
                assert traj.bbox.dx > 500.0 * 0.5

    def test_lanes_run_in_both_directions(self):
        mod, truth = maritime_scenario(n_trajectories=40, n_lanes=2, seed=5)
        directions = set()
        for traj in mod:
            labels = truth.labels_for(traj.key)
            if any(lbl is not None for lbl in labels):
                directions.add(float(traj.xs[-1]) > float(traj.xs[0]))
        assert directions == {True, False}


class TestOrbitScenarioSpecifics:
    def test_transit_drones_switch_site_mid_trajectory(self):
        _, truth = orbit_scenario(n_trajectories=30, transit_fraction=0.3, seed=2)
        switchers = sum(
            1
            for labels in truth.labels.values()
            if len({lbl for lbl in labels if lbl is not None}) >= 2
        )
        assert switchers == 9

    def test_loiterers_orbit_close_to_one_site(self):
        mod, truth = orbit_scenario(
            n_trajectories=30, transit_fraction=0.0, outlier_fraction=0.0,
            area=120.0, seed=4,
        )
        radius = 120.0 * 0.08
        for traj in mod:
            assert len(set(truth.labels_for(traj.key))) == 1
            # An orbiting drone's bbox is about twice the orbit radius.
            assert traj.bbox.dx < 4 * radius

    def test_site_count_reflected_in_truth(self):
        _, truth = orbit_scenario(n_trajectories=40, n_sites=4, seed=1)
        sites = {f for f in truth.flow_ids() if f.startswith("site")}
        assert 2 <= len(sites) <= 4

    def test_outliers_are_birds_with_none_labels(self):
        mod, truth = orbit_scenario(n_trajectories=20, outlier_fraction=0.2, seed=7)
        birds = [traj for traj in mod if traj.obj_id.startswith("bird")]
        assert len(birds) == 4
        for traj in birds:
            assert all(lbl is None for lbl in truth.labels_for(traj.key))


class TestFrameRoundTrip:
    """Every scenario survives the columnar MODFrame round trip."""

    @pytest.mark.parametrize("factory", ALL_SCENARIOS)
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 2))
    def test_from_mod_to_mod_is_identity_with_labels(self, factory, seed):
        mod, truth = factory(seed)
        restored = MODFrame.from_mod(mod).to_mod(name=mod.name)
        assert restored.keys() == mod.keys()
        for key in mod.keys():
            orig, back = mod.get(key), restored.get(key)
            np.testing.assert_array_equal(back.xs, orig.xs)
            np.testing.assert_array_equal(back.ys, orig.ys)
            np.testing.assert_array_equal(back.ts, orig.ts)
            # Ground truth still aligns sample-for-sample after the trip.
            assert len(truth.labels_for(key)) == back.num_points


class TestGroundTruth:
    def test_flow_ids_skip_noise_and_repeats(self):
        truth = GroundTruth()
        truth.set_labels(("a", "0"), np.array(["x", None, "x"], dtype=object))
        truth.set_labels(("b", "0"), [None, "w"])
        assert truth.flow_ids() == ["w", "x"]
        assert truth.labels_for(("b", "0")).dtype == object
        assert truth.labels_for(("b", "0"))[0] is None
