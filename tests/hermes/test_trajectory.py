"""Unit tests for the trajectory / sub-trajectory model."""

import numpy as np
import pytest

from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import Period
from tests.conftest import make_linear_trajectory


class TestTrajectoryConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trajectory("a", "0", [0, 1], [0, 1, 2], [0, 1])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            Trajectory("a", "0", [0], [0], [0])

    def test_rejects_non_increasing_time(self):
        with pytest.raises(ValueError):
            Trajectory("a", "0", [0, 1, 2], [0, 0, 0], [0, 5, 5])
        with pytest.raises(ValueError):
            Trajectory("a", "0", [0, 1, 2], [0, 0, 0], [0, 5, 3])

    def test_rejects_2d_arrays(self):
        with pytest.raises(ValueError):
            Trajectory("a", "0", np.zeros((2, 2)), [0, 1], [0, 1])

    def test_key_and_equality(self):
        a = make_linear_trajectory("a", "1")
        b = make_linear_trajectory("a", "1")
        c = make_linear_trajectory("a", "2")
        assert a.key == ("a", "1")
        assert a == b
        assert a != c
        assert hash(a) == hash(b)


class TestTrajectoryGeometry:
    def test_basic_properties(self, linear_trajectory):
        traj = linear_trajectory
        assert traj.num_points == 11
        assert traj.num_segments == 10
        assert traj.duration == 100.0
        assert traj.length == pytest.approx(10.0)
        assert traj.period == Period(0.0, 100.0)

    def test_bbox(self, linear_trajectory):
        box = linear_trajectory.bbox
        assert box.as_tuple() == (0.0, 0.0, 0.0, 10.0, 0.0, 100.0)

    def test_points_and_segments_iteration(self, linear_trajectory):
        points = list(linear_trajectory.points())
        segments = list(linear_trajectory.segments())
        assert len(points) == 11
        assert len(segments) == 10
        assert segments[0].start == points[0]
        assert segments[-1].end == points[-1]

    def test_stationary_trajectory_has_zero_length(self):
        traj = Trajectory("a", "0", [0, 0], [0, 0], [0, 1])
        assert traj.length == 0.0


class TestTemporalOperations:
    def test_position_at_interpolates(self, linear_trajectory):
        p = linear_trajectory.position_at(55.0)
        assert p.x == pytest.approx(5.5)
        assert p.y == pytest.approx(0.0)
        assert p.t == 55.0

    def test_position_at_clamps_outside_lifespan(self, linear_trajectory):
        assert linear_trajectory.position_at(-10.0).x == 0.0
        assert linear_trajectory.position_at(500.0).x == 10.0

    def test_positions_at_vectorised_matches_scalar(self, linear_trajectory):
        ts = np.array([0.0, 13.0, 47.0, 100.0])
        vec = linear_trajectory.positions_at(ts)
        for i, t in enumerate(ts):
            p = linear_trajectory.position_at(float(t))
            assert vec[i, 0] == pytest.approx(p.x)
            assert vec[i, 1] == pytest.approx(p.y)

    def test_slice_period_interior(self, linear_trajectory):
        piece = linear_trajectory.slice_period(Period(25.0, 75.0))
        assert piece is not None
        assert piece.period.tmin == pytest.approx(25.0)
        assert piece.period.tmax == pytest.approx(75.0)
        assert piece.xs[0] == pytest.approx(2.5)
        assert piece.xs[-1] == pytest.approx(7.5)

    def test_slice_period_disjoint_returns_none(self, linear_trajectory):
        assert linear_trajectory.slice_period(Period(200.0, 300.0)) is None

    def test_slice_period_instant_returns_none(self, linear_trajectory):
        assert linear_trajectory.slice_period(Period(100.0, 150.0)) is None

    def test_slice_period_full_cover_returns_copy(self, linear_trajectory):
        piece = linear_trajectory.slice_period(Period(-10.0, 200.0))
        assert piece is not None
        assert piece.num_points == linear_trajectory.num_points

    def test_resample_preserves_endpoints(self, linear_trajectory):
        resampled = linear_trajectory.resample(23)
        assert resampled.num_points == 23
        assert resampled.xs[0] == pytest.approx(linear_trajectory.xs[0])
        assert resampled.xs[-1] == pytest.approx(linear_trajectory.xs[-1])
        assert resampled.period == linear_trajectory.period

    def test_resample_rejects_too_few(self, linear_trajectory):
        with pytest.raises(ValueError):
            linear_trajectory.resample(1)


class TestSubTrajectory:
    def test_from_trajectory_bounds(self, linear_trajectory):
        sub = SubTrajectory.from_trajectory(linear_trajectory, 2, 6)
        assert sub.num_points == 5
        assert sub.parent_key == linear_trajectory.key
        assert sub.start_idx == 2 and sub.end_idx == 6
        assert sub.traj.ts[0] == linear_trajectory.ts[2]

    def test_invalid_bounds_rejected(self, linear_trajectory):
        with pytest.raises(ValueError):
            SubTrajectory.from_trajectory(linear_trajectory, 5, 5)
        with pytest.raises(ValueError):
            SubTrajectory.from_trajectory(linear_trajectory, -1, 3)
        with pytest.raises(ValueError):
            SubTrajectory.from_trajectory(linear_trajectory, 3, 99)

    def test_subtrajectory_key_unique_per_slice(self, linear_trajectory):
        a = linear_trajectory.subtrajectory(0, 3)
        b = linear_trajectory.subtrajectory(3, 6)
        assert a.key != b.key
        assert a.obj_id == linear_trajectory.obj_id

    def test_split_at_indices_partitions_samples(self, linear_trajectory):
        subs = linear_trajectory.split_at_indices([3, 7])
        assert len(subs) == 3
        assert subs[0].start_idx == 0 and subs[0].end_idx == 3
        assert subs[1].start_idx == 3 and subs[1].end_idx == 7
        assert subs[2].start_idx == 7 and subs[2].end_idx == 10
        # Together the pieces cover every sample of the parent.
        covered = set()
        for sub in subs:
            covered.update(range(sub.start_idx, sub.end_idx + 1))
        assert covered == set(range(linear_trajectory.num_points))

    def test_split_ignores_out_of_range_and_duplicate_cuts(self, linear_trajectory):
        subs = linear_trajectory.split_at_indices([0, 3, 3, 10, 25])
        assert len(subs) == 2

    def test_split_no_cuts_returns_whole(self, linear_trajectory):
        subs = linear_trajectory.split_at_indices([])
        assert len(subs) == 1
        assert subs[0].num_points == linear_trajectory.num_points
