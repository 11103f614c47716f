"""Property-based tests for the degradation profiles.

Every profile must honour the invariants documented in
:mod:`repro.datagen.profiles`: trajectory keys survive, every trajectory
keeps >= 2 strictly increasing timestamps, ground-truth labels stay aligned
with the surviving samples, and the whole transform is a pure function of
``(mod, truth, seed)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import HermesEngine
from repro.core.ingest import AppendBuffer
from repro.datagen import lane_scenario, parse_profile
from repro.datagen.profiles import (
    PROFILES,
    clean,
    dropout,
    gps_noise,
    out_of_order_jitter,
    point_stream,
    rush_hour,
)
from repro.hermes.mod import MOD
from tests.core.test_ingest import explicit_params, full_window, qut_similarity

seeds = st.integers(min_value=0, max_value=2**31 - 2)


def small_scenario(seed=3):
    return lane_scenario(n_trajectories=12, n_samples=24, seed=seed)


def assert_contract(mod, degraded_mod, degraded_truth):
    """The invariants every degradation profile guarantees."""
    assert degraded_mod.keys() == mod.keys()
    for traj in degraded_mod:
        assert traj.num_points >= 2
        assert np.all(np.diff(traj.ts) > 0)
        labels = degraded_truth.labels_for(traj.key)
        assert len(labels) == traj.num_points


class TestProfileContracts:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_keys_counts_and_alignment(self, name, seed):
        mod, truth = small_scenario()
        out_mod, out_truth = PROFILES[name]().apply(mod, truth, seed=seed)
        assert_contract(mod, out_mod, out_truth)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_pure_function_of_seed(self, name):
        mod, truth = small_scenario()
        a_mod, a_truth = PROFILES[name]().apply(mod, truth, seed=5)
        b_mod, b_truth = PROFILES[name]().apply(mod, truth, seed=5)
        for key in mod.keys():
            np.testing.assert_array_equal(a_mod.get(key).xs, b_mod.get(key).xs)
            np.testing.assert_array_equal(a_mod.get(key).ts, b_mod.get(key).ts)
            np.testing.assert_array_equal(a_truth.labels_for(key), b_truth.labels_for(key))

    def test_clean_is_identity(self):
        mod, truth = small_scenario()
        out_mod, out_truth = clean().apply(mod, truth, seed=1)
        for key in mod.keys():
            np.testing.assert_array_equal(out_mod.get(key).xs, mod.get(key).xs)
            np.testing.assert_array_equal(out_truth.labels_for(key), truth.labels_for(key))


class TestDropout:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds, fraction=st.floats(min_value=0.0, max_value=0.95))
    def test_never_empties_a_trajectory(self, seed, fraction):
        """Even at 95% dropout every trajectory keeps >= 2 samples."""
        mod, truth = small_scenario()
        out_mod, out_truth = dropout(fraction=fraction).apply(mod, truth, seed=seed)
        assert_contract(mod, out_mod, out_truth)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_survivors_keep_their_labels(self, seed):
        """Kept samples carry the label of the original sample at the same
        (x, y, t) — dropout removes rows, it never re-pairs them."""
        mod, truth = small_scenario()
        out_mod, out_truth = dropout(fraction=0.5).apply(mod, truth, seed=seed)
        for traj in out_mod:
            orig = mod.get(traj.key)
            orig_labels = truth.labels_for(traj.key)
            by_ts = {float(t): (float(x), lbl) for t, x, lbl in zip(orig.ts, orig.xs, orig_labels)}
            for t, x, lbl in zip(traj.ts, traj.xs, out_truth.labels_for(traj.key)):
                assert by_ts[float(t)] == (float(x), lbl)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            dropout(fraction=1.0)


class TestGpsNoise:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_only_positions_move(self, seed):
        mod, truth = small_scenario()
        out_mod, out_truth = gps_noise().apply(mod, truth, seed=seed)
        assert_contract(mod, out_mod, out_truth)
        for traj in out_mod:
            orig = mod.get(traj.key)
            np.testing.assert_array_equal(traj.ts, orig.ts)
            assert not np.array_equal(traj.xs, orig.xs)
            np.testing.assert_array_equal(
                out_truth.labels_for(traj.key), truth.labels_for(traj.key)
            )


class TestRushHour:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_rigid_shift_compresses_arrivals(self, seed):
        mod, truth = small_scenario()
        out_mod, out_truth = rush_hour().apply(mod, truth, seed=seed)
        assert_contract(mod, out_mod, out_truth)
        duration = mod.period.duration
        for traj in out_mod:
            orig = mod.get(traj.key)
            # Intra-trajectory intervals are untouched (rigid shift) ...
            np.testing.assert_allclose(np.diff(traj.ts), np.diff(orig.ts), atol=1e-9)
            np.testing.assert_array_equal(
                out_truth.labels_for(traj.key), truth.labels_for(traj.key)
            )
        # ... and starts pile into the first ~third of the lifespan.
        starts = [float(t.ts[0]) for t in out_mod]
        assert max(starts) - min(starts) <= 0.35 * duration


class TestOutOfOrderJitter:
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_labels_travel_with_their_sample(self, seed):
        mod, truth = small_scenario()
        out_mod, out_truth = out_of_order_jitter().apply(mod, truth, seed=seed)
        assert_contract(mod, out_mod, out_truth)
        for traj in out_mod:
            orig = mod.get(traj.key)
            orig_labels = truth.labels_for(traj.key)
            # Positions are copied verbatim, so (x, y) identifies the sample.
            by_pos = {
                (float(x), float(y)): lbl
                for x, y, lbl in zip(orig.xs, orig.ys, orig_labels)
            }
            for x, y, lbl in zip(traj.xs, traj.ys, out_truth.labels_for(traj.key)):
                assert by_pos[(float(x), float(y))] == lbl

    def test_actually_reorders_some_samples(self):
        mod, truth = small_scenario()
        out_mod, _ = out_of_order_jitter(jitter_fraction=1.5).apply(mod, truth, seed=2)
        reordered = sum(
            0 if np.array_equal(out_mod.get(key).xs, mod.get(key).xs) else 1
            for key in mod.keys()
        )
        assert reordered > 0


class TestParseProfile:
    def test_composition_and_kwargs(self):
        profile = parse_profile("gps_noise:sigma_fraction=0.02+dropout:fraction=0.4,min_points=3")
        assert profile.name == "gps_noise+dropout"
        mod, truth = small_scenario()
        out_mod, out_truth = profile.apply(mod, truth, seed=9)
        assert_contract(mod, out_mod, out_truth)

    def test_composition_matches_manual_plus(self):
        mod, truth = small_scenario()
        parsed = parse_profile("gps_noise+jitter").apply(mod, truth, seed=4)
        manual = (gps_noise() + out_of_order_jitter()).apply(mod, truth, seed=4)
        for key in mod.keys():
            np.testing.assert_array_equal(parsed[0].get(key).xs, manual[0].get(key).xs)
            np.testing.assert_array_equal(parsed[0].get(key).ts, manual[0].get(key).ts)

    @pytest.mark.parametrize("spec", ["", "ghost", "dropout:fraction", "+"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_profile(spec)


class TestPointStreamIngest:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_shuffled_stream_reassembles_exactly(self, seed):
        """Feeding the globally shuffled stream through AppendBuffer gives
        back the original trajectories byte for byte."""
        mod, _ = small_scenario()
        buf = AppendBuffer()
        buf.extend(
            ((obj_id, traj_id), (t, x, y))
            for obj_id, traj_id, x, y, t in point_stream(mod, seed=seed)
        )
        rebuilt = {traj.key: traj for traj in buf.drain_complete()}
        assert set(rebuilt) == set(mod.keys())
        for key in mod.keys():
            orig = mod.get(key)
            np.testing.assert_array_equal(rebuilt[key].xs, orig.xs)
            np.testing.assert_array_equal(rebuilt[key].ys, orig.ys)
            np.testing.assert_array_equal(rebuilt[key].ts, orig.ts)

    def test_jittered_ingest_keeps_batch_equivalence_pin(self):
        """The PR 5 pin holds on degraded data too: QuT after appending a
        jittered MOD batch-by-batch matches the from-scratch build on the
        same data (ARI over shared assignments >= 0.6)."""
        mod, truth = lane_scenario(n_trajectories=24, seed=3)
        mod, _ = out_of_order_jitter().apply(mod, truth, seed=11)
        trajs = mod.trajectories()
        base, rest = trajs[:12], trajs[12:]
        batches = [rest[i : i + 2] for i in range(0, len(rest), 2)]
        params = explicit_params(mod)
        window = full_window(mod)

        incremental = HermesEngine.in_memory()
        incremental.load_mod("lanes", MOD(name="lanes", trajectories=base))
        incremental.qut("lanes", window, params=params)
        for batch in batches:
            report = incremental.append("lanes", batch)
            assert report.tree_maintained
        result_inc = incremental.qut("lanes", window)

        rebuilt = HermesEngine.in_memory()
        rebuilt.load_mod("lanes", mod)
        result_full = rebuilt.qut("lanes", window, params=params)

        assert qut_similarity(result_inc, result_full) >= 0.6
