"""Unit tests for the voting phase of NaTS."""

import numpy as np
import pytest

from repro.datagen import aircraft_scenario, lane_scenario, urban_scenario
from repro.hermes.mod import MOD
from repro.s2t.params import S2TParams
from repro.s2t.voting import compute_voting, kernel_support_radius
from tests.conftest import make_linear_trajectory
from tests.s2t.oracles import dense_voting


class TestVotingBasics:
    def test_votes_have_one_value_per_segment(self, small_mod):
        profile = compute_voting(small_mod, S2TParams())
        for traj in small_mod:
            assert len(profile.segment_votes(traj.key)) == traj.num_segments

    def test_co_moving_trajectories_vote_for_each_other(self, small_mod):
        profile = compute_voting(small_mod, S2TParams(sigma=1.0))
        # a, b, c move together 0.5 apart; z is 50+ away.
        votes_a = profile.segment_votes(("a", "0"))
        votes_z = profile.segment_votes(("z", "0"))
        assert votes_a.mean() > 1.0  # b and c both contribute close to 1 each
        assert votes_z.mean() < 0.05

    def test_votes_bounded_by_mod_cardinality(self, small_mod):
        profile = compute_voting(small_mod, S2TParams())
        for traj in small_mod:
            votes = profile.segment_votes(traj.key)
            assert np.all(votes >= 0.0)
            assert np.all(votes <= len(small_mod) - 1 + 1e-9)

    def test_disjoint_lifespans_do_not_vote(self):
        mod = MOD()
        mod.add(make_linear_trajectory("early", "0", t0=0, t1=10))
        mod.add(make_linear_trajectory("late", "0", t0=100, t1=110))
        profile = compute_voting(mod, S2TParams(sigma=1.0))
        assert profile.segment_votes(("early", "0")).max() == 0.0
        assert profile.segment_votes(("late", "0")).max() == 0.0


class TestVotingKernels:
    def test_triangular_kernel_runs(self, small_mod):
        profile = compute_voting(
            small_mod, S2TParams(sigma=1.0, voting_kernel="triangular")
        )
        assert profile.segment_votes(("a", "0")).mean() > 0.5

    def test_gaussian_vote_value_for_known_distance(self, parallel_pair):
        a, b = parallel_pair
        mod = MOD(trajectories=[a, b])
        profile = compute_voting(mod, S2TParams(sigma=1.0))
        # distance 1, sigma 1 -> exp(-0.5) ~ 0.6065 per voter.
        assert profile.segment_votes(a.key).mean() == pytest.approx(0.6065, rel=0.02)

    def test_larger_sigma_gives_larger_votes(self, small_mod):
        tight = compute_voting(small_mod, S2TParams(sigma=0.2))
        loose = compute_voting(small_mod, S2TParams(sigma=5.0))
        assert loose.segment_votes(("a", "0")).mean() > tight.segment_votes(("a", "0")).mean()


class TestOneVotingEngine:
    @pytest.mark.parametrize("value", ["dense", "indexed", "mystery"])
    def test_any_strategy_but_batched_is_refused(self, value):
        with pytest.raises(ValueError, match=rf"'{value}'.*tests/s2t/oracles.py"):
            S2TParams(voting_strategy=value)

    def test_all_pairs_oracle_prunes_nothing(self, lanes_small):
        mod, _ = lanes_small
        profile = dense_voting(mod, S2TParams(sigma=1.0))
        assert profile.pairs_pruned == 0
        assert profile.pairs_evaluated == len(mod) * (len(mod) - 1)

    def test_sweep_prunes(self, lanes_small):
        mod, _ = lanes_small
        profile = compute_voting(mod, S2TParams(sigma=1.0))
        assert profile.pairs_pruned > 0
        assert profile.pairs_evaluated + profile.pairs_pruned == len(mod) * (len(mod) - 1)

    def test_kernel_support_radius(self):
        assert kernel_support_radius(2.0, "triangular") == pytest.approx(6.0)
        # Gaussian support: vote at the radius is the pruning tolerance.
        r = kernel_support_radius(2.0, "gaussian")
        assert np.exp(-(r**2) / (2.0 * 4.0)) == pytest.approx(1e-12)

    @pytest.mark.parametrize(
        "scenario",
        [
            lambda: lane_scenario(n_trajectories=18, n_lanes=3, n_samples=30, seed=11),
            lambda: aircraft_scenario(n_trajectories=20, n_samples=30, seed=5),
            lambda: urban_scenario(n_trajectories=16, n_samples=25, seed=3),
        ],
        ids=["lanes", "aircraft", "urban"],
    )
    @pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
    def test_sweep_matches_dense_oracle_on_datagen_scenarios(self, scenario, kernel):
        mod, _truth = scenario()
        params = S2TParams(voting_kernel=kernel)
        dense = dense_voting(mod, params)
        sweep = compute_voting(mod, params)
        assert list(sweep.votes) == list(dense.votes)
        for traj in mod:
            # Exact up to the kernel-support pruning margin.
            np.testing.assert_allclose(
                sweep.segment_votes(traj.key),
                dense.segment_votes(traj.key),
                atol=1e-8,
                err_msg=f"sweep != dense oracle for {traj.key}",
            )
