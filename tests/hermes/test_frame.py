"""Unit tests for the MODFrame column-store."""

import numpy as np
import pytest

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from tests.conftest import make_linear_trajectory


def _block(frame: MODFrame, row: int) -> slice:
    """The slice of row ``row``'s samples in the frame's columns."""
    return slice(frame.offsets[row], frame.offsets[row + 1])



def _random_trajs(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        m = int(rng.integers(2, 40))
        ts = rng.uniform(0, 50) + np.cumsum(rng.uniform(0.1, 2.0, m))
        xs = np.cumsum(rng.normal(0, 1, m))
        ys = np.cumsum(rng.normal(0, 1, m))
        out.append(Trajectory(f"o{i}", "0", xs, ys, ts))
    return out


class TestConstruction:
    def test_columns_concatenate_in_row_order(self):
        trajs = _random_trajs(5)
        frame = MODFrame.from_trajectories(trajs)
        assert len(frame) == 5
        assert frame.total_points == sum(t.num_points for t in trajs)
        for i, traj in enumerate(trajs):
            assert frame.keys[i] == traj.key
            assert frame.row_of(traj.key) == i
            np.testing.assert_array_equal(frame.xs[_block(frame, i)], traj.xs)
            np.testing.assert_array_equal(frame.ys[_block(frame, i)], traj.ys)
            np.testing.assert_array_equal(frame.ts[_block(frame, i)], traj.ts)

    def test_lifespan_and_bbox_tables(self):
        trajs = _random_trajs(6, seed=3)
        frame = MODFrame.from_trajectories(trajs)
        for i, traj in enumerate(trajs):
            assert frame.period_of(i) == traj.period
            assert frame.bbox_of(i) == traj.bbox
            assert frame.offsets[i + 1] - frame.offsets[i] == traj.num_points

    def test_from_mod_uses_insertion_order(self, small_mod):
        frame = MODFrame.from_mod(small_mod)
        assert frame.keys == small_mod.keys()

    def test_empty_frame(self):
        frame = MODFrame.from_trajectories([])
        assert len(frame) == 0
        assert frame.total_points == 0


class TestPositionsAtBatch:
    def test_matches_scalar_interpolation(self):
        trajs = _random_trajs(12, seed=1)
        frame = MODFrame.from_trajectories(trajs)
        grid = np.linspace(-5.0, 120.0, 33)  # extends beyond every lifespan
        X, Y = frame.positions_at_batch(np.arange(len(trajs)), grid)
        for i, traj in enumerate(trajs):
            ref = traj.positions_at(grid)
            np.testing.assert_allclose(X[i], ref[:, 0], atol=1e-12)
            np.testing.assert_allclose(Y[i], ref[:, 1], atol=1e-12)

    def test_per_row_grids(self):
        trajs = _random_trajs(8, seed=2)
        frame = MODFrame.from_trajectories(trajs)
        rng = np.random.default_rng(7)
        grids = np.sort(rng.uniform(0, 100, size=(len(trajs), 9)), axis=1)
        X, Y = frame.positions_at_batch(np.arange(len(trajs)), grids)
        for i, traj in enumerate(trajs):
            ref = traj.positions_at(grids[i])
            np.testing.assert_allclose(X[i], ref[:, 0], atol=1e-12)
            np.testing.assert_allclose(Y[i], ref[:, 1], atol=1e-12)

    def test_exact_at_sample_instants(self):
        traj = make_linear_trajectory(n=7)
        frame = MODFrame.from_trajectories([traj])
        X, Y = frame.positions_at_batch([0], traj.ts)
        np.testing.assert_array_equal(X[0], traj.xs)
        np.testing.assert_array_equal(Y[0], traj.ys)

    def test_row_subset(self):
        trajs = _random_trajs(10, seed=4)
        frame = MODFrame.from_trajectories(trajs)
        rows = np.array([7, 2, 5])
        grid = np.linspace(0, 80, 11)
        X, Y = frame.positions_at_batch(rows, grid)
        for out_i, row in enumerate(rows):
            ref = trajs[row].positions_at(grid)
            np.testing.assert_allclose(X[out_i], ref[:, 0], atol=1e-12)
            np.testing.assert_allclose(Y[out_i], ref[:, 1], atol=1e-12)

    def test_mismatched_grid_rows_raise(self):
        frame = MODFrame.from_trajectories(_random_trajs(3))
        with pytest.raises(ValueError):
            frame.positions_at_batch([0, 1], np.zeros((3, 4)))

    def test_empty_rows(self):
        frame = MODFrame.from_trajectories(_random_trajs(3))
        X, Y = frame.positions_at_batch(np.array([], dtype=int), np.linspace(0, 1, 5))
        assert X.shape == (0, 5)


class TestLifespanOverlap:
    def test_overlap_matches_period_intersection(self):
        trajs = _random_trajs(9, seed=5)
        frame = MODFrame.from_trajectories(trajs)
        lo, hi = frame.lifespan_overlap(10.0, 40.0)
        from repro.hermes.types import Period

        for i, traj in enumerate(trajs):
            inter = traj.period.intersection(Period(10.0, 40.0))
            if inter is None or inter.duration <= 0:
                assert hi[i] - lo[i] <= 0
            else:
                assert lo[i] == pytest.approx(inter.tmin)
                assert hi[i] == pytest.approx(inter.tmax)


def _frames_equal(a: MODFrame, b: MODFrame) -> bool:
    return (
        a.keys == b.keys
        and np.array_equal(a.offsets, b.offsets)
        and np.array_equal(a.xs, b.xs)
        and np.array_equal(a.ys, b.ys)
        and np.array_equal(a.ts, b.ts)
    )


class TestRowMaterialisation:
    def test_trajectory_of_round_trips(self):
        trajs = _random_trajs(4, seed=9)
        frame = MODFrame.from_trajectories(trajs)
        for i, traj in enumerate(trajs):
            assert frame.trajectory_of(i) == traj

    def test_trajectory_of_shares_columns(self):
        frame = MODFrame.from_trajectories(_random_trajs(3, seed=2))
        traj = frame.trajectory_of(1)
        assert traj.xs.base is frame.xs

    def test_to_mod_round_trips(self):
        trajs = _random_trajs(5, seed=4)
        frame = MODFrame.from_trajectories(trajs)
        mod = frame.to_mod(name="restored")
        assert mod.name == "restored"
        assert mod.trajectories() == trajs


class TestSlicePeriod:
    def test_matches_per_trajectory_slicing(self):
        trajs = _random_trajs(10, seed=10)
        frame = MODFrame.from_trajectories(trajs)
        tmin = min(t.period.tmin for t in trajs)
        tmax = max(t.period.tmax for t in trajs)
        window = Period(tmin + 0.25 * (tmax - tmin), tmin + 0.7 * (tmax - tmin))
        expected = [t.slice_period(window) for t in trajs]
        expected = [t for t in expected if t is not None]
        direct = MODFrame.from_trajectories(expected)
        assert _frames_equal(frame.slice_period(window), direct)

    def test_disjoint_window_empty(self):
        frame = MODFrame.from_trajectories(_random_trajs(4, seed=11))
        sliced = frame.slice_period(Period(1e6, 2e6))
        assert len(sliced) == 0

    def test_degenerate_window_empty(self):
        trajs = _random_trajs(4, seed=12)
        frame = MODFrame.from_trajectories(trajs)
        mid = float(trajs[0].ts[1])
        assert len(frame.slice_period(Period(mid, mid))) == 0

    def test_empty_frame(self):
        frame = MODFrame.from_trajectories([])
        assert len(frame.slice_period(Period(0.0, 1.0))) == 0

    def test_slice_period_rows_maps_back_to_parent(self):
        trajs = _random_trajs(10, seed=13)
        frame = MODFrame.from_trajectories(trajs)
        tmin = min(t.period.tmin for t in trajs)
        tmax = max(t.period.tmax for t in trajs)
        window = Period(tmin + 0.3 * (tmax - tmin), tmin + 0.6 * (tmax - tmin))
        sliced, rows = frame.slice_period_rows(window)
        assert len(sliced) == len(rows)
        for k, row in enumerate(rows):
            expected = trajs[int(row)].slice_period(window)
            assert expected is not None
            got = sliced.trajectory_of(k)
            assert got.key == trajs[int(row)].key
            assert np.array_equal(got.xs, expected.xs)
            assert np.array_equal(got.ys, expected.ys)
            assert np.array_equal(got.ts, expected.ts)
        # Rows that survived are exactly those whose restriction exists.
        survivors = {int(r) for r in rows}
        for i, traj in enumerate(trajs):
            assert (traj.slice_period(window) is not None) == (i in survivors)

    def test_slice_period_rows_disambiguates_duplicate_keys(self):
        base = _random_trajs(1, seed=14)[0]
        # Two frame rows with the SAME key but different geometry — the row
        # mapping, not the keys, must attribute the slices.
        twin = type(base)(base.obj_id, base.traj_id, base.xs + 1.0, base.ys, base.ts)
        frame = MODFrame.from_trajectories([base, twin])
        window = Period(
            base.period.tmin + 0.2 * base.duration,
            base.period.tmin + 0.8 * base.duration,
        )
        sliced, rows = frame.slice_period_rows(window)
        assert list(rows) == [0, 1]
        assert np.array_equal(sliced.xs[_block(sliced, 0)] + 1.0, sliced.xs[_block(sliced, 1)])


class TestSerialization:
    def test_pickle_round_trip(self):
        import pickle

        frame = MODFrame.from_trajectories(_random_trajs(5, seed=13))
        restored = pickle.loads(pickle.dumps(frame))
        assert _frames_equal(frame, restored)
        # Derived state must be rebuilt, not dropped.
        assert restored.row_of(frame.keys[2]) == 2
        np.testing.assert_array_equal(restored.tmins, frame.tmins)
        np.testing.assert_array_equal(restored.xmaxs, frame.xmaxs)

    def test_payload_round_trip_preserves_kernels(self):
        frame = MODFrame.from_trajectories(_random_trajs(4, seed=14))
        restored = MODFrame.from_payload(frame.to_payload())
        grid = np.linspace(float(frame.tmins.min()), float(frame.tmaxs.max()), 7)
        rows = np.arange(len(frame))
        x0, y0 = frame.positions_at_batch(rows, grid)
        x1, y1 = restored.positions_at_batch(rows, grid)
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(y0, y1)

    def test_from_mod_counter_increments(self):
        mod = MOD(name="counted", trajectories=_random_trajs(3, seed=15))
        before = MODFrame.from_mod_calls
        MODFrame.from_mod(mod)
        assert MODFrame.from_mod_calls == before + 1


class TestConcat:
    """The one concatenation (`MODFrame.concat`), and the row gather (`take`)."""

    def test_concat_matches_full_rebuild(self):
        trajs = _random_trajs(8, seed=21)
        frame = MODFrame.concat(
            [MODFrame.from_trajectories(trajs[:5]), MODFrame.from_trajectories(trajs[5:])]
        )
        reference = MODFrame.from_trajectories(trajs)
        assert _frames_equal(frame, reference)
        np.testing.assert_array_equal(frame.tmins, reference.tmins)
        np.testing.assert_array_equal(frame.xmaxs, reference.xmaxs)
        assert frame.row_of(trajs[6].key) == 6

    def test_concat_of_many_and_of_empty_frames(self):
        trajs = _random_trajs(6, seed=22)
        empty = MODFrame.from_trajectories([])
        parts = [empty, MODFrame.from_trajectories(trajs[:2]), empty, MODFrame.from_trajectories(trajs[2:])]
        assert _frames_equal(MODFrame.concat(parts), MODFrame.from_trajectories(trajs))
        assert len(MODFrame.concat([empty, empty])) == 0

    def test_a_single_frame_is_its_own_concatenation(self):
        frame = MODFrame.from_trajectories(_random_trajs(3, seed=23))
        assert MODFrame.concat([frame]) is frame

    def test_kernels_after_concat_with_grown_span(self):
        """Rows beyond the old time span: the new frame bands its own span,
        keeping positions_at_batch exact."""
        trajs = _random_trajs(5, seed=27)
        head = MODFrame.from_trajectories(trajs[:3])
        head.positions_at_batch([0], np.array([10.0]))  # the input's bands exist
        late = Trajectory(
            "late", "0", [0.0, 4.0, 8.0], [1.0, 5.0, 9.0], [500.0, 600.0, 700.0]
        )
        frame = MODFrame.concat([head, MODFrame.from_trajectories([*trajs[3:], late])])
        reference = MODFrame.from_trajectories([*trajs, late])
        grid = np.linspace(float(frame.tmins.min()), float(frame.tmaxs.max()), 9)
        rows = np.arange(len(frame))
        x0, y0 = frame.positions_at_batch(rows, grid)
        x1, y1 = reference.positions_at_batch(rows, grid)
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(y0, y1)

    def test_inputs_are_left_as_they_are(self):
        """Consumers holding an input frame (an open cursor) keep it."""
        trajs = _random_trajs(4, seed=28)
        frame = MODFrame.from_trajectories(trajs[:2])
        before = {col: getattr(frame, col).copy() for col in ("xs", "ys", "ts", "offsets", "tmins")}
        keys = list(frame.keys)
        MODFrame.concat([frame, MODFrame.from_trajectories(trajs[2:])])
        assert frame.keys == keys
        for col, values in before.items():
            np.testing.assert_array_equal(getattr(frame, col), values)

    def test_take_gathers_rows_in_the_given_order(self):
        trajs = _random_trajs(6, seed=29)
        frame = MODFrame.from_trajectories(trajs)
        order = [4, 0, 5, 2, 1, 3]
        assert _frames_equal(frame.take(order), MODFrame.from_trajectories([trajs[i] for i in order]))
        assert len(frame.take([])) == 0


class TestLazyIndexes:
    """The key → row map and the time bands are built on first use, not at
    construction: a frame nobody looks up by key or interpolates holds neither."""

    @staticmethod
    def built(frame: MODFrame) -> tuple[bool, bool]:
        return frame._key_to_row is not None, frame._banded_ts is not None

    def test_each_is_built_by_its_first_use(self):
        trajs = _random_trajs(6, seed=31)
        frame = MODFrame.from_trajectories(trajs)
        assert self.built(frame) == (False, False)
        assert frame.maybe_row_of(("nobody", "0")) is None
        assert self.built(frame) == (True, False)
        frame.positions_at_batch([0, 3], np.array([1.0, 20.0]))
        assert self.built(frame) == (True, True)
        unpickled = MODFrame.from_payload(frame.to_payload())
        assert self.built(unpickled) == (False, False)
        assert unpickled.row_of(trajs[4].key) == 4

    def test_a_concatenation_holds_neither_until_asked(self):
        trajs = _random_trajs(8, seed=32)
        head = MODFrame.from_trajectories(trajs)
        head.positions_at_batch([0], np.array([10.0]))
        assert head.maybe_row_of(("nobody", "0")) is None
        early = Trajectory("early", "0", [0.0, 1.0], [0.0, 1.0], [-60.0, -59.0])
        frame = MODFrame.concat([head, MODFrame.from_trajectories([early])])
        assert self.built(frame) == (False, False)
        reference = MODFrame.from_trajectories(trajs + [early])
        assert frame.row_of(early.key) == reference.row_of(early.key) == 8
        grid = np.linspace(-70.0, 70.0, 41)
        rows = np.arange(len(reference))
        for got, want in zip(
            frame.positions_at_batch(rows, grid), reference.positions_at_batch(rows, grid)
        ):
            np.testing.assert_array_equal(got, want)

    def test_an_s2t_result_holds_neither_until_asked(self):
        from repro.datagen import aircraft_scenario
        from repro.s2t.params import S2TParams
        from repro.s2t.pipeline import S2TClustering

        mod, _truth = aircraft_scenario(n_trajectories=400, n_samples=50, seed=1100)
        result = S2TClustering(S2TParams()).fit(mod)
        members = [cluster.members for cluster in result.clusters] + [result.outliers]
        frames = {id(rows.frame): rows.frame for m in members for rows, _index in m._runs}
        assert len(frames) >= 1 and result.clusters
        assert all(self.built(frame) == (False, False) for frame in frames.values())
        frame = next(iter(frames.values()))
        assert frame.row_of(frame.keys[-1]) == len(frame) - 1
        assert self.built(frame) == (True, False)
