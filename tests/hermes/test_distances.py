"""Unit tests for the spatiotemporal distance functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.distances import (
    hausdorff_distance,
    hausdorff_distance_pairs,
    spatiotemporal_distance,
    spatiotemporal_distance_batch,
)
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import Trajectory
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


def all_pairs(rows_a, rows_b):
    """Every ``(i, j)`` row pair of two trajectory lists, as index arrays."""
    i, j = np.divmod(np.arange(len(rows_a) * len(rows_b)), len(rows_b))
    return i, j


class TestHausdorffBatch:
    """:func:`hausdorff_distance_pairs` equals :func:`hausdorff_distance` bit for bit."""

    def test_matches_scalar_per_row(self, parallel_pair, linear_trajectory):
        a, b = parallel_pair
        short = make_linear_trajectory("s", "0", (3, 3), (4, 7), n=2)  # single segment
        far = make_linear_trajectory("far", "0", (500, 500), (510, 500))
        rows = [a, b, short, far, linear_trajectory]
        frame = MODFrame.from_trajectories(rows)
        i, j = all_pairs(rows, rows)
        pairs = hausdorff_distance_pairs(frame, frame, i, j)
        assert pairs.shape == (len(rows) ** 2,)
        assert np.all(np.isfinite(pairs))
        assert pairs.tolist() == [hausdorff_distance(rows[p], rows[q]) for p, q in zip(i, j)]

    def test_identical_point_sets_are_zero(self, linear_trajectory):
        frame = MODFrame.from_trajectories([linear_trajectory, linear_trajectory])
        i, j = all_pairs([0, 1], [0, 1])
        assert hausdorff_distance_pairs(frame, frame, i, j).tolist() == [0.0] * 4

    def test_empty_frame(self, linear_trajectory):
        none = np.zeros(0, dtype=np.intp)
        frame = MODFrame.from_trajectories([linear_trajectory])
        assert hausdorff_distance_pairs(MODFrame([]), frame, none, none).shape == (0,)
        assert hausdorff_distance_pairs(frame, frame, none, none).shape == (0,)

    def test_chunked_batches_agree(self, monkeypatch, parallel_pair):
        import repro.hermes.distances as distances

        a, b = parallel_pair
        rows = [a, b, make_linear_trajectory("c", "0", (0, 9), (1, 9), n=3)] * 3
        frame = MODFrame.from_trajectories(rows)
        i, j = all_pairs(rows, rows[:2])
        whole = hausdorff_distance_pairs(frame, frame, i, j)
        monkeypatch.setattr(distances, "MAX_BATCH_CELLS", 1)  # one pair per batch
        assert hausdorff_distance_pairs(frame, frame, i, j).tolist() == whole.tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_scalar_on_generated_sets(self, data):
        """Ragged rows (2-12 samples) and any subset of pairs, in any order."""
        sides = [
            [
                data.draw(planar_trajectory(f"{side}{k}"))
                for k in range(data.draw(st.integers(min_value=1, max_value=6)))
            ]
            for side in "ab"
        ]
        i, j = all_pairs(*sides)
        order = data.draw(st.permutations(range(len(i))), label="pair order")
        keep = data.draw(st.lists(st.booleans(), min_size=len(i), max_size=len(i)))
        i, j = i[list(order)][keep], j[list(order)][keep]
        frames = [MODFrame.from_trajectories(side) for side in sides]
        pairs = hausdorff_distance_pairs(*frames, i, j)
        scalar = [hausdorff_distance(sides[0][p], sides[1][q]) for p, q in zip(i, j)]
        assert pairs.tolist() == scalar
