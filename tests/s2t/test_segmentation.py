"""Unit tests for NaTS segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.s2t.params import S2TParams
from repro.s2t.segmentation import (
    dp_segmentation,
    greedy_segmentation,
    segment_by_voting,
    segment_mod,
)
from repro.s2t.voting import compute_voting
from tests.conftest import make_linear_trajectory


def step_signal(levels: list[float], run: int = 10) -> np.ndarray:
    return np.concatenate([np.full(run, lvl) for lvl in levels])


class TestDPSegmentation:
    def test_constant_signal_never_split(self):
        assert dp_segmentation(np.full(50, 3.0), penalty=0.05, min_len=4) == []

    def test_clear_step_is_found(self):
        votes = step_signal([0.0, 10.0])
        cuts = dp_segmentation(votes, penalty=0.05, min_len=3)
        assert cuts == [10]

    def test_three_levels_two_cuts(self):
        votes = step_signal([0.0, 10.0, 0.0])
        cuts = dp_segmentation(votes, penalty=0.05, min_len=3)
        assert cuts == [10, 20]

    def test_min_len_respected(self):
        votes = step_signal([0.0, 10.0], run=4)
        cuts = dp_segmentation(votes, penalty=0.01, min_len=5)
        for lo, hi in zip([0] + cuts, cuts + [len(votes)]):
            assert hi - lo >= 5

    def test_high_penalty_suppresses_cuts(self):
        votes = step_signal([0.0, 1.0, 0.5, 0.8])
        few = dp_segmentation(votes, penalty=5.0, min_len=3)
        many = dp_segmentation(votes, penalty=0.001, min_len=3)
        assert len(few) <= len(many)

    def test_short_signal_not_split(self):
        assert dp_segmentation(np.array([1.0, 5.0]), penalty=0.05, min_len=4) == []

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=5, max_size=60))
    def test_cuts_are_valid_positions(self, values):
        votes = np.asarray(values)
        cuts = dp_segmentation(votes, penalty=0.05, min_len=2)
        assert all(0 < c < len(votes) for c in cuts)
        assert cuts == sorted(cuts)
        assert len(set(cuts)) == len(cuts)


class TestGreedySegmentation:
    def test_constant_signal_never_split(self):
        assert greedy_segmentation(np.full(50, 3.0), threshold_fraction=0.2, min_len=4) == []

    def test_step_found(self):
        votes = step_signal([0.0, 10.0])
        cuts = greedy_segmentation(votes, threshold_fraction=0.3, min_len=3)
        assert len(cuts) >= 1
        assert 8 <= cuts[0] <= 12

    def test_min_len_respected(self):
        votes = step_signal([0.0, 5.0, 0.0, 5.0], run=6)
        cuts = greedy_segmentation(votes, threshold_fraction=0.2, min_len=4)
        bounds = [0] + cuts + [len(votes)]
        assert all(b - a >= 4 for a, b in zip(bounds[:-1], bounds[1:]))


class TestSegmentByVoting:
    def test_produces_subtrajectories_covering_parent(self):
        traj = make_linear_trajectory("a", "0", n=31)
        votes = step_signal([0.0, 8.0, 0.0])  # 30 segments
        subs = segment_by_voting(traj, votes, S2TParams(segmentation_method="dp"))
        assert len(subs) == 3
        covered = set()
        for sub in subs:
            covered.update(range(sub.start_idx, sub.end_idx + 1))
        assert covered == set(range(traj.num_points))

    def test_greedy_method_also_runs(self):
        traj = make_linear_trajectory("a", "0", n=31)
        votes = step_signal([0.0, 8.0, 0.0])
        subs = segment_by_voting(traj, votes, S2TParams(segmentation_method="greedy"))
        assert len(subs) >= 2


class TestSegmentMod:
    def test_segment_mod_outputs_masses(self, small_mod):
        params = S2TParams(sigma=1.0).resolved(small_mod)
        profile = compute_voting(small_mod, params)
        subs, masses, elapsed = segment_mod(small_mod, profile, params)
        assert len(subs) >= len(small_mod)
        assert set(masses) == {s.key for s in subs}
        assert all(m >= 0 for m in masses.values())
        assert elapsed >= 0.0

    def test_co_moving_subtrajectories_have_higher_mass(self, small_mod):
        params = S2TParams(sigma=1.0).resolved(small_mod)
        profile = compute_voting(small_mod, params)
        subs, masses, _ = segment_mod(small_mod, profile, params)
        mass_a = max(m for key, m in masses.items() if key[0] == "a")
        mass_z = max(m for key, m in masses.items() if key[0] == "z")
        assert mass_a > mass_z

    @pytest.mark.parametrize("method", ["dp", "greedy"])
    def test_every_subtrajectory_has_at_least_two_samples(self, segmented_scenario, method):
        # The columnar kernels bracket each instant between two samples of
        # its row, so the sub-trajectory frame SaCO builds must never be
        # handed a one-sample row — even at the smallest legal segment size.
        mod, _subs, _masses, _params = segmented_scenario
        params = S2TParams(
            segmentation_method=method, min_segment_samples=2, segmentation_penalty=1e-4
        ).resolved(mod)
        subs, masses, _ = segment_mod(mod, compute_voting(mod, params), params)
        assert len(subs) > len(mod)
        assert min(sub.num_points for sub in subs) >= 2
        assert all(sub.traj.ts[-1] > sub.traj.ts[0] for sub in subs)
        assert len(masses) == len(subs)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=2, max_size=40),
        st.sampled_from(["dp", "greedy"]),
    )
    def test_segment_by_voting_never_emits_a_single_sample(self, values, method):
        votes = np.asarray(values)
        traj = make_linear_trajectory("a", "0", n=len(votes) + 1)
        params = S2TParams(
            segmentation_method=method, min_segment_samples=2, segmentation_penalty=1e-4
        )
        subs = segment_by_voting(traj, votes, params)
        assert subs and all(sub.num_points >= 2 for sub in subs)
        assert subs[0].start_idx == 0 and subs[-1].end_idx == traj.num_points - 1


def _dp_segmentation_reference(votes: np.ndarray, penalty: float, min_len: int) -> list[int]:
    """The pre-vectorisation O(n^2) Python loop, kept as the exactness oracle."""
    n = len(votes)
    if n <= min_len:
        return []
    dynamic_range = float(votes.max() - votes.min())
    if dynamic_range <= 1e-9 * (float(np.abs(votes).max()) + 1.0):
        return []
    total_ss = float(np.sum((votes - votes.mean()) ** 2))
    penalty_cost = penalty * total_ss if total_ss > 0 else penalty

    prefix = np.concatenate([[0.0], np.cumsum(votes)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(votes**2)])

    def seg_cost(i: int, j: int) -> float:
        length = j - i
        s = prefix[j] - prefix[i]
        sq = prefix_sq[j] - prefix_sq[i]
        return sq - s * s / length

    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    back = np.zeros(n + 1, dtype=int)
    for j in range(min_len, n + 1):
        for i in range(0, j - min_len + 1):
            if best[i] == np.inf:
                continue
            cost = best[i] + seg_cost(i, j) + penalty_cost
            if cost < best[j]:
                best[j] = cost
                back[j] = i
    cuts = []
    j = n
    while j > 0:
        i = int(back[j])
        if i > 0:
            cuts.append(i)
        j = i
    cuts.reverse()
    return cuts


class TestDPVectorisedEquivalence:
    """The broadcast inner loop must reproduce the scalar DP exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_signals_exact_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        kind = seed % 3
        if kind == 0:
            votes = rng.uniform(0, 10, n)
        elif kind == 1:  # step signal with noise
            votes = np.concatenate(
                [np.full(max(n // 2, 1), 1.0), np.full(n - max(n // 2, 1), 8.0)]
            ) + rng.normal(0, 0.3, n)
        else:  # smooth drift
            votes = np.cumsum(rng.normal(0, 0.5, n)) + 5.0
        for penalty in (0.01, 0.05, 0.5):
            for min_len in (2, 4):
                assert dp_segmentation(votes, penalty, min_len) == (
                    _dp_segmentation_reference(votes, penalty, min_len)
                ), f"divergence at seed={seed} penalty={penalty} min_len={min_len}"

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=3, max_size=80),
        st.floats(min_value=0.001, max_value=1.0),
        st.integers(min_value=2, max_value=6),
    )
    def test_hypothesis_signals_exact_match(self, values, penalty, min_len):
        votes = np.asarray(values)
        assert dp_segmentation(votes, penalty, min_len) == (
            _dp_segmentation_reference(votes, penalty, min_len)
        )
