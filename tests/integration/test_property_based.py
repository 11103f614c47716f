"""Property-based tests on cross-module invariants (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.distances import (
    spatiotemporal_distance,
    spatiotemporal_distance_batch,
)
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.query import QuTClustering
from repro.qut.retratree import ReTraTree
from repro.s2t.clustering import (
    assign_to_representatives,
    assign_to_representatives_batch,
)
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.voting import compute_voting
from repro.storage.records import decode_record, encode_record


@st.composite
def random_trajectory(draw, obj_id: str = "obj"):
    n = draw(st.integers(min_value=2, max_value=40))
    t0 = draw(st.floats(min_value=0, max_value=500))
    dt = draw(st.floats(min_value=0.5, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    ts = t0 + np.arange(n) * dt
    xs = np.cumsum(rng.normal(0, 1, n)) + rng.uniform(-50, 50)
    ys = np.cumsum(rng.normal(0, 1, n)) + rng.uniform(-50, 50)
    return Trajectory(obj_id, str(seed), xs, ys, ts)


@st.composite
def random_mod(draw, min_trajs: int = 2, max_trajs: int = 10):
    n = draw(st.integers(min_value=min_trajs, max_value=max_trajs))
    mod = MOD(name="random")
    for i in range(n):
        mod.add(draw(random_trajectory(obj_id=f"o{i}")))
    return mod


class TestTrajectoryInvariants:
    @settings(max_examples=40, deadline=None)
    @given(random_trajectory())
    def test_record_round_trip_is_identity(self, traj):
        restored = decode_record(encode_record(traj)).to_trajectory()
        assert restored == traj

    @settings(max_examples=40, deadline=None)
    @given(random_trajectory(), st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_slice_period_stays_within_lifespan_and_window(self, traj, a, b):
        lo, hi = sorted(
            [
                traj.period.tmin + a * traj.duration,
                traj.period.tmin + b * traj.duration,
            ]
        )
        piece = traj.slice_period(Period(lo, hi))
        if piece is not None:
            assert piece.period.tmin >= lo - 1e-6
            assert piece.period.tmax <= hi + 1e-6
            assert piece.period.tmin >= traj.period.tmin - 1e-6
            assert piece.length <= traj.length + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(random_trajectory(), st.integers(min_value=2, max_value=50))
    def test_resampling_preserves_extent(self, traj, n):
        resampled = traj.resample(n)
        assert resampled.num_points == n
        assert resampled.period == traj.period
        assert resampled.bbox.xmin >= traj.bbox.xmin - 1e-9
        assert resampled.bbox.xmax <= traj.bbox.xmax + 1e-9


class TestClusteringInvariants:
    @settings(max_examples=10, deadline=None)
    @given(random_mod())
    def test_s2t_partitions_subtrajectories(self, mod):
        """Every sub-trajectory is either clustered or an outlier, never both."""
        result = S2TClustering(S2TParams(voting_strategy="dense")).fit(mod)
        clustered_keys = [m.key for c in result.clusters for m in c.members]
        outlier_keys = [o.key for o in result.outliers]
        assert len(set(clustered_keys)) == len(clustered_keys)
        assert set(clustered_keys).isdisjoint(outlier_keys)
        assert len(clustered_keys) + len(outlier_keys) == result.extras["num_subtrajectories"]
        # Every cluster respects the support threshold.
        support = result.params.min_cluster_support
        assert all(c.size >= support for c in result.clusters)

    @settings(max_examples=10, deadline=None)
    @given(random_mod())
    def test_s2t_covers_every_parent_sample(self, mod):
        result = S2TClustering(S2TParams(voting_strategy="dense")).fit(mod)
        assignments = result.point_assignments()
        for traj in mod:
            assert set(assignments[traj.key].keys()) == set(range(traj.num_points))


class TestBatchKernelEquivalence:
    """The columnar batch kernels must agree with their scalar counterparts."""

    @settings(max_examples=25, deadline=None)
    @given(random_mod(min_trajs=2, max_trajs=8), st.integers(min_value=0, max_value=2**31 - 1))
    def test_positions_at_batch_matches_positions_at(self, mod, seed):
        trajs = mod.trajectories()
        frame = MODFrame.from_mod(mod)
        rng = np.random.default_rng(seed)
        period = mod.period
        grid = np.sort(
            rng.uniform(period.tmin - 10.0, period.tmax + 10.0, size=16)
        )
        X, Y = frame.positions_at_batch(np.arange(len(trajs)), grid)
        for i, traj in enumerate(trajs):
            ref = traj.positions_at(grid)
            np.testing.assert_allclose(X[i], ref[:, 0], rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(Y[i], ref[:, 1], rtol=1e-9, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(random_mod(min_trajs=2, max_trajs=8), random_trajectory(obj_id="target"))
    def test_spatiotemporal_distance_batch_matches_scalar(self, mod, target):
        trajs = mod.trajectories()
        frame = MODFrame.from_mod(mod)
        batch = spatiotemporal_distance_batch(frame, target, max_samples=32)
        for i, traj in enumerate(trajs):
            scalar = spatiotemporal_distance(traj, target, max_samples=32)
            if math.isinf(scalar):
                assert math.isinf(batch[i])
            else:
                assert batch[i] == pytest.approx(scalar, rel=1e-9, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(random_mod(min_trajs=3, max_trajs=8), random_trajectory(obj_id="sub"))
    def test_assignment_batch_matches_scalar(self, mod, sub_traj):
        reps = [t.subtrajectory(0, t.num_points - 1) for t in mod.trajectories()]
        sub = sub_traj.subtrajectory(0, sub_traj.num_points - 1)
        rep_frame = MODFrame.from_trajectories(r.traj for r in reps)
        for eps, tol in ((5.0, 0.0), (50.0, 2.5)):
            scalar_idx, scalar_dist = assign_to_representatives(sub, reps, eps, tol)
            batch_idx, batch_dist = assign_to_representatives_batch(
                sub, rep_frame, eps, tol
            )
            assert batch_idx == scalar_idx
            if math.isinf(scalar_dist):
                assert math.isinf(batch_dist)
            else:
                assert batch_dist == pytest.approx(scalar_dist, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(random_mod(min_trajs=2, max_trajs=7))
    def test_batched_voting_matches_dense(self, mod):
        dense = compute_voting(mod, S2TParams(sigma=2.0, voting_strategy="dense"))
        batched = compute_voting(mod, S2TParams(sigma=2.0, voting_strategy="batched"))
        for key, votes in dense.votes.items():
            np.testing.assert_allclose(
                batched.votes[key], votes, atol=1e-8, err_msg=f"votes differ for {key}"
            )


class TestReTraTreeInvariants:
    @settings(max_examples=8, deadline=None)
    @given(random_mod(min_trajs=2, max_trajs=6))
    def test_every_inserted_piece_is_retrievable(self, mod):
        tree = ReTraTree.build(mod, QuTParams(overflow_threshold=8))
        archived = 0
        for subchunk in tree.subchunks():
            archived += len(tree.load_unclustered(subchunk))
            for entry in subchunk.entries:
                archived += len(tree.load_members(entry))
        assert archived == tree.stats.pieces_inserted

    @settings(max_examples=8, deadline=None)
    @given(random_mod(min_trajs=2, max_trajs=6), st.floats(min_value=0.1, max_value=0.9))
    def test_qut_results_respect_window(self, mod, frac):
        tree = ReTraTree.build(mod, QuTParams(overflow_threshold=8))
        period = mod.period
        window = Period(period.tmin, period.tmin + frac * max(period.duration, 1e-6))
        result = QuTClustering(tree).query(window)
        for sub, _cid in result.all_subtrajectories():
            assert sub.period.tmin >= window.tmin - 1e-6
            assert sub.period.tmax <= window.tmax + 1e-6


class TestFrameSlicingInvariants:
    """Slice-then-build == build-then-slice (the frame-catalog contract)."""

    @settings(max_examples=25, deadline=None)
    @given(random_mod(min_trajs=2, max_trajs=8), st.data())
    def test_select_rows_commutes_with_build(self, mod, data):
        frame = MODFrame.from_mod(mod)
        trajs = mod.trajectories()
        rows = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(trajs) - 1),
                min_size=0,
                max_size=len(trajs),
                unique=True,
            )
        )
        selected = frame.select_rows(rows)
        direct = MODFrame.from_trajectories([trajs[r] for r in rows])
        assert selected.keys == direct.keys
        np.testing.assert_array_equal(selected.offsets, direct.offsets)
        np.testing.assert_array_equal(selected.xs, direct.xs)
        np.testing.assert_array_equal(selected.ys, direct.ys)
        np.testing.assert_array_equal(selected.ts, direct.ts)

    @settings(max_examples=25, deadline=None)
    @given(
        random_mod(min_trajs=2, max_trajs=8),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_slice_period_commutes_with_build(self, mod, a, b):
        period = mod.period
        lo = period.tmin + min(a, b) * period.duration
        hi = period.tmin + max(a, b) * period.duration
        window = Period(lo, hi)

        sliced = MODFrame.from_mod(mod).slice_period(window)
        direct = MODFrame.from_mod(mod.temporal_range(window))
        assert sliced.keys == direct.keys
        np.testing.assert_array_equal(sliced.offsets, direct.offsets)
        np.testing.assert_array_equal(sliced.xs, direct.xs)
        np.testing.assert_array_equal(sliced.ys, direct.ys)
        np.testing.assert_array_equal(sliced.ts, direct.ts)

    @settings(max_examples=15, deadline=None)
    @given(
        random_mod(min_trajs=2, max_trajs=6),
        st.floats(min_value=0.1, max_value=0.9),
    )
    def test_slice_pickle_round_trip(self, mod, frac):
        import pickle

        period = mod.period
        window = Period(period.tmin, period.tmin + frac * period.duration)
        sliced = MODFrame.from_mod(mod).slice_period(window)
        restored = pickle.loads(pickle.dumps(sliced))
        assert restored.keys == sliced.keys
        np.testing.assert_array_equal(restored.xs, sliced.xs)
        np.testing.assert_array_equal(restored.ts, sliced.ts)
