"""Unit tests for the spatiotemporal distance functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.distances import (
    closest_approach_distance,
    dtw_distance,
    hausdorff_distance,
    hausdorff_distance_batch,
    lcss_similarity,
    point_to_segment_distance_2d,
    segment_trajectory_distance,
    spatiotemporal_distance,
    spatiotemporal_distance_batch,
)
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import PointST, SegmentST
from tests.conftest import make_linear_trajectory


class TestSpatiotemporalDistance:
    def test_parallel_trajectories_distance_equals_offset(self, parallel_pair):
        a, b = parallel_pair
        assert spatiotemporal_distance(a, b) == pytest.approx(1.0, rel=1e-6)

    def test_identical_trajectories_distance_zero(self, linear_trajectory):
        assert spatiotemporal_distance(linear_trajectory, linear_trajectory) == pytest.approx(0.0)

    def test_disjoint_lifespans_give_infinity(self):
        a = make_linear_trajectory("a", "0", t0=0, t1=10)
        b = make_linear_trajectory("b", "0", t0=20, t1=30)
        assert math.isinf(spatiotemporal_distance(a, b))

    def test_symmetric(self, parallel_pair):
        a, b = parallel_pair
        assert spatiotemporal_distance(a, b) == pytest.approx(spatiotemporal_distance(b, a))

    def test_time_awareness_opposite_directions(self):
        # Same spatial footprint, opposite directions: synchronous distance is
        # large even though the paths coincide.
        a = make_linear_trajectory("a", "0", (0, 0), (10, 0))
        b = make_linear_trajectory("b", "0", (10, 0), (0, 0))
        assert spatiotemporal_distance(a, b) > 3.0
        # ... while the purely spatial Hausdorff distance is ~0.
        assert hausdorff_distance(a, b) == pytest.approx(0.0, abs=1e-9)


class TestSpatiotemporalDistanceBatch:
    def test_matches_scalar_and_marks_disjoint_rows_inf(self, parallel_pair):
        a, b = parallel_pair
        late = make_linear_trajectory("l", "0", t0=200, t1=300)
        dists = spatiotemporal_distance_batch(MODFrame.from_trajectories([a, b, late]), a)
        assert dists[0] == pytest.approx(0.0)
        assert dists[1] == pytest.approx(spatiotemporal_distance(b, a))
        assert math.isinf(dists[2])

    @pytest.mark.parametrize("max_samples", [0, -3])
    def test_bad_max_samples_rejected_before_the_early_returns(
        self, parallel_pair, max_samples
    ):
        # Neither an empty frame nor a frame with no overlapping row may
        # swallow the bad argument: the check precedes both early returns.
        a, b = parallel_pair
        late = make_linear_trajectory("l", "0", t0=200, t1=300)
        for frame in (
            MODFrame.from_trajectories([]),
            MODFrame.from_trajectories([late]),
            MODFrame.from_trajectories([b]),
        ):
            with pytest.raises(ValueError, match="max_samples"):
                spatiotemporal_distance_batch(frame, a, max_samples=max_samples)


class TestClosestApproach:
    def test_crossing_trajectories_touch(self):
        a = make_linear_trajectory("a", "0", (0, -5), (0, 5))
        b = make_linear_trajectory("b", "0", (-5, 0), (5, 0))
        # The synchronisation grid need not hit the exact meeting instant, so
        # allow a tolerance of one grid step's worth of movement.
        assert closest_approach_distance(a, b) < 0.2

    def test_not_less_than_min_offset(self, parallel_pair):
        a, b = parallel_pair
        assert closest_approach_distance(a, b) == pytest.approx(1.0, rel=1e-6)

    def test_disjoint_lifespans(self):
        a = make_linear_trajectory("a", "0", t0=0, t1=10)
        b = make_linear_trajectory("b", "0", t0=20, t1=30)
        assert math.isinf(closest_approach_distance(a, b))


class TestHausdorff:
    def test_identical_is_zero(self, linear_trajectory):
        assert hausdorff_distance(linear_trajectory, linear_trajectory) == 0.0

    def test_offset_lines(self, parallel_pair):
        a, b = parallel_pair
        assert hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_symmetric(self):
        a = make_linear_trajectory("a", "0", (0, 0), (10, 0))
        b = make_linear_trajectory("b", "0", (0, 0), (5, 0))
        assert hausdorff_distance(a, b) == pytest.approx(hausdorff_distance(b, a))
        assert hausdorff_distance(a, b) == pytest.approx(5.0)


@st.composite
def planar_trajectory(draw, obj_id: str):
    """2-12 samples on a coarse grid, so coincident points and ties do occur."""
    n = draw(st.integers(min_value=2, max_value=12))
    coord = st.integers(min_value=-8, max_value=8).map(lambda v: v / 4.0)
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    return Trajectory(obj_id, "0", xs, ys, np.arange(n, dtype=float))


class TestHausdorffBatch:
    def test_matches_scalar_per_row(self, parallel_pair, linear_trajectory):
        a, b = parallel_pair
        short = make_linear_trajectory("s", "0", (3, 3), (4, 7), n=2)  # single segment
        far = make_linear_trajectory("far", "0", (500, 500), (510, 500))
        rows = [a, b, short, far, linear_trajectory]
        frame = MODFrame.from_trajectories(rows)
        for probe in rows:
            batch = hausdorff_distance_batch(frame, probe)
            assert batch.shape == (len(rows),)
            assert np.all(np.isfinite(batch))
            assert batch.tolist() == [hausdorff_distance(row, probe) for row in rows]

    def test_identical_point_sets_are_zero(self, linear_trajectory):
        frame = MODFrame.from_trajectories([linear_trajectory, linear_trajectory])
        assert hausdorff_distance_batch(frame, linear_trajectory).tolist() == [0.0, 0.0]

    def test_empty_frame(self, linear_trajectory):
        assert hausdorff_distance_batch(MODFrame([]), linear_trajectory).shape == (0,)

    def test_chunked_batches_agree(self, monkeypatch, parallel_pair):
        import repro.hermes.distances as distances

        a, b = parallel_pair
        rows = [a, b, make_linear_trajectory("c", "0", (0, 9), (1, 9), n=3)] * 3
        frame = MODFrame.from_trajectories(rows)
        whole = hausdorff_distance_batch(frame, b)
        monkeypatch.setattr(distances, "MAX_BATCH_CELLS", 1)  # one row per batch
        assert hausdorff_distance_batch(frame, b).tolist() == whole.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scalar_on_generated_sets(self, data):
        rows = [
            data.draw(planar_trajectory(f"r{i}"))
            for i in range(data.draw(st.integers(min_value=1, max_value=6)))
        ]
        probe = data.draw(planar_trajectory("probe"))
        batch = hausdorff_distance_batch(MODFrame.from_trajectories(rows), probe)
        scalar = np.array([hausdorff_distance(row, probe) for row in rows])
        np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-12)


class TestDTW:
    def test_identical_is_zero(self, linear_trajectory):
        assert dtw_distance(linear_trajectory, linear_trajectory) == pytest.approx(0.0)

    def test_offset_accumulates(self, parallel_pair):
        a, b = parallel_pair
        # Each of the 11 aligned samples contributes ~1.
        assert dtw_distance(a, b) == pytest.approx(11.0, rel=0.05)

    def test_window_constrains_alignment(self, parallel_pair):
        a, b = parallel_pair
        unconstrained = dtw_distance(a, b)
        constrained = dtw_distance(a, b, window=1)
        assert constrained >= unconstrained - 1e-9


class TestLCSS:
    def test_identical_full_similarity(self, linear_trajectory):
        assert lcss_similarity(linear_trajectory, linear_trajectory, eps=0.1) == 1.0

    def test_far_apart_zero_similarity(self):
        a = make_linear_trajectory("a", "0", (0, 0), (10, 0))
        b = make_linear_trajectory("b", "0", (0, 100), (10, 100))
        assert lcss_similarity(a, b, eps=1.0) == 0.0

    def test_temporal_constraint_reduces_similarity(self):
        a = make_linear_trajectory("a", "0", (0, 0), (10, 0), t0=0, t1=100)
        b = make_linear_trajectory("b", "0", (0, 0), (10, 0), t0=500, t1=600)
        loose = lcss_similarity(a, b, eps=0.5)
        strict = lcss_similarity(a, b, eps=0.5, delta=10.0)
        assert loose == 1.0
        assert strict == 0.0


class TestSegmentDistances:
    def test_point_to_segment_projection(self):
        seg = SegmentST(PointST(0, 0, 0), PointST(10, 0, 10))
        assert point_to_segment_distance_2d(PointST(5, 3, 5), seg) == pytest.approx(3.0)
        assert point_to_segment_distance_2d(PointST(-4, 3, 0), seg) == pytest.approx(5.0)

    def test_point_to_degenerate_segment(self):
        seg = SegmentST(PointST(1, 1, 0), PointST(1, 1, 5))
        assert point_to_segment_distance_2d(PointST(4, 5, 2), seg) == pytest.approx(5.0)

    def test_segment_trajectory_distance_co_moving(self, parallel_pair):
        a, b = parallel_pair
        seg = a.segment(3)
        assert segment_trajectory_distance(seg, b) == pytest.approx(1.0, rel=1e-3)

    def test_segment_trajectory_distance_disjoint_time(self):
        a = make_linear_trajectory("a", "0", t0=0, t1=10)
        b = make_linear_trajectory("b", "0", t0=100, t1=200)
        assert math.isinf(segment_trajectory_distance(a.segment(0), b))
