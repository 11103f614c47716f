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
from repro.storage.records import encode_record
from tests.storage.oracles import decode_record


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

    def test_slice_period_bound_one_ulp_below_a_knot(self):
        """The shrunk ``--hypothesis-seed=18`` counterexample of the test above.

        ``a=0.0, b=1/3`` puts the window's upper bound one ulp *below* the
        second trajectory's knot ``ts[10]``.  ``positions_at_batch``'s banded
        search key ``(q - t0) + row * band_step`` drops that ulp, so the
        instant used to bracket into the *next* segment and come out as the
        knot's own ``x`` (…855) instead of the interpolated …853 that
        ``Trajectory.slice_period`` computes.
        """
        xs = [
            -10.98212738099623, -11.114232244287532, -10.47380959384425,
            -10.368909476691211, -10.90457884985232, -10.542983794942836,
            -9.2389837498127, -8.291902786683458, -8.99563802249045,
            -10.261059493536502, -10.884333956073855, -10.84300797672661,
            -13.168038751365446, -13.386830415297991, -14.632741362551057,
            -15.365008717254508, -15.909267700111817, -16.22556785648097,
            -15.813937320106838, -14.771423950664161, -14.899958613608195,
            -13.53349514305851, -14.198689816545123, -13.847179746452102,
            -12.943709564800294, -12.849697267039419, -13.593196516393228,
            -14.514921892651646, -14.972647718318987, -14.752452594848936,
            -15.762070778387674,
        ]
        ys = [
            7.874013588770589, 8.414859173456396, 8.629518295962738,
            8.984891005002659, 8.33106239558432, 8.20144876189155,
            8.98542423195288, 10.478855377173641, 9.21978984506952,
            10.733713619808583, 12.079589043590886, 12.860900444291314,
            13.125356074620617, 12.81143326008419, 14.269453943621148,
            16.229712260071114, 18.031347129937238, 19.346450894671612,
            19.703831305330567, 18.495512673048395, 18.49105853992831,
            19.14753347500465, 17.859172011255094, 18.2542940714371,
            18.684157766259332, 19.3802004902222, 18.19608252346501,
            17.534379951425976, 17.097944704282753, 15.92814279650989,
            17.667510673640024,
        ]
        ts = [
            0.0, 1.1060043154286543, 2.2120086308573086, 3.318012946285963,
            4.424017261714617, 5.5300215771432715, 6.636025892571926,
            7.74203020800058, 8.848034523429234, 9.954038838857889,
            11.060043154286543, 12.166047469715197, 13.272051785143852,
            14.378056100572506, 15.48406041600116, 16.590064731429813,
            17.69606904685847, 18.802073362287125, 19.908077677715777,
            21.01408199314443, 22.120086308573086, 23.226090624001742,
            24.332094939430394, 25.438099254859047, 26.544103570287703,
            27.65010788571636, 28.75611220114501, 29.862116516573664,
            30.96812083200232, 32.074125147430976, 33.180129462859625,
        ]
        mod = MOD(name="random")
        mod.add(
            Trajectory(
                "o0", "0",
                [-45.77691738528714, -45.909022248578445],
                [41.3804578449252, 40.8447884717641],
                [0.0, 1.0],
            )
        )
        mod.add(Trajectory("o1", "0", xs, ys, ts))
        period = mod.period
        window = Period(period.tmin, period.tmin + 0.3333333333333333 * period.duration)
        assert window.tmax == np.nextafter(ts[10], 0.0)

        sliced = MODFrame.from_mod(mod).slice_period(window)
        direct = MODFrame.from_mod(mod.temporal_range(window))
        assert sliced.keys == direct.keys
        np.testing.assert_array_equal(sliced.xs, direct.xs)
        np.testing.assert_array_equal(sliced.ys, direct.ys)
        np.testing.assert_array_equal(sliced.ts, direct.ts)
        assert sliced.xs[-1] == -10.884333956073853

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
