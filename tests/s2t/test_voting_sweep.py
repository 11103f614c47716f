"""The voter-major voting sweep against the per-target kernel it replaced.

``tests/s2t/oracles.py`` holds the per-target batched kernel verbatim.  The
sweep must give the same votes *bit for bit* (``np.array_equal``, not a
tolerance) and the same ``pairs_evaluated`` / ``pairs_pruned``, on generated
MODs that force the edge cases (shared and tied timestamps across
trajectories, lifespans that only touch or are disjoint, one- and
two-trajectory MODs), on long trajectories (every instant votes), through
``RangeThenCluster``'s windows, and end to end on the ``s2t_batch`` data
(there together with the per-trajectory segmentation oracle).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.s2t.pipeline as pipeline
from repro.baselines.range_then_cluster import RangeThenCluster
from repro.datagen import aircraft_scenario, lane_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.voting import compute_voting
from tests.conftest import membership_signature
from tests.s2t.oracles import oracle_segment_frame, oracle_voting


def assert_same_voting(sweep, oracle) -> None:
    """Bit-identical votes per trajectory, identical pair counts."""
    assert list(sweep.votes) == list(oracle.votes)
    for key, votes in oracle.votes.items():
        assert np.array_equal(sweep.votes[key], votes), key
    assert sweep.pairs_evaluated == oracle.pairs_evaluated
    assert sweep.pairs_pruned == oracle.pairs_pruned


@st.composite
def voting_mods(draw, max_trajectories: int = 7):
    """Small MODs on a half-unit time grid.

    Timestamps come from ``{0, 0.5, ..., 20}``, so different trajectories
    share instants and tie in the time-sorted column; a trajectory may start
    exactly where an earlier one ends (a touching, zero-duration overlap) or
    live after it (disjoint).  Positions are a random walk around a drawn
    anchor, so some pairs lie within the kernel support and some beyond it.
    The grid keeps the oracle's banded ``positions_at_batch`` search exact.
    """
    n = draw(st.integers(min_value=1, max_value=max_trajectories))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    trajectories = []
    for i in range(n):
        ticks = draw(st.sets(st.integers(min_value=0, max_value=40), min_size=2, max_size=14))
        ts = np.array(sorted(ticks), dtype=float) / 2.0
        if trajectories and draw(st.integers(min_value=0, max_value=3)) == 0:
            # Start where an earlier trajectory ends: touching lifespans, or
            # disjoint ones when shifted past that end.
            end = float(trajectories[draw(st.integers(0, len(trajectories) - 1))].ts[-1])
            ts = ts - ts[0] + end + draw(st.sampled_from([0.0, 0.0, 3.5]))
        anchor = draw(st.sampled_from([(0.0, 0.0), (1.0, 0.5), (30.0, -20.0)]))
        xs = anchor[0] + np.cumsum(rng.normal(0.0, 1.0, ts.size))
        ys = anchor[1] + np.cumsum(rng.normal(0.0, 1.0, ts.size))
        trajectories.append(Trajectory(f"o{i}", "0", xs, ys, ts))
    return MOD(name="gen", trajectories=trajectories)


voting_params = st.builds(
    S2TParams,
    sigma=st.sampled_from([0.25, 1.0, 4.0, 40.0]),
    eps=st.just(1.0),
    voting_kernel=st.sampled_from(["gaussian", "triangular"]),
)


class TestSweepEqualsOracle:
    @settings(max_examples=200, deadline=None)
    @given(mod=voting_mods(), params=voting_params)
    def test_votes_bit_identical_to_the_per_target_kernel(self, mod, params):
        frame = MODFrame.from_mod(mod)
        assert_same_voting(
            compute_voting(mod, params, frame=frame), oracle_voting(mod, params, frame=frame)
        )

    @pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
    def test_same_pairs_as_the_oracles_r_tree(self, kernel):
        """From 512 trajectories the oracle picks voters with an R-tree over
        the margin-expanded boxes; the box test must pick the same pairs."""
        mod, _truth = aircraft_scenario(n_trajectories=520, n_samples=8, seed=3)
        params = S2TParams(voting_kernel=kernel)
        assert_same_voting(compute_voting(mod, params), oracle_voting(mod, params))

    @pytest.mark.parametrize("kernel", ["gaussian", "triangular"])
    def test_long_trajectories_vote_at_every_instant(self, kernel):
        """96 samples per flight: a voter votes on every instant of each
        target inside its lifespan, with no per-pair thinning."""
        mod, _truth = aircraft_scenario(n_trajectories=60, n_samples=96, seed=3)
        params = S2TParams(voting_kernel=kernel)
        assert_same_voting(compute_voting(mod, params), oracle_voting(mod, params))

    def test_range_then_cluster_votes_equal_the_oracle(self, monkeypatch):
        """Every window's voting == oracle, and its memberships == S2T on the slice."""
        mod, _truth = lane_scenario(n_trajectories=40, n_samples=40, seed=5)
        frame = MODFrame.from_mod(mod)
        params = S2TParams()
        fits = []

        def checked(mod, params, frame=None):
            sweep = compute_voting(mod, params, frame=frame)
            assert_same_voting(sweep, oracle_voting(mod, params, frame=frame))
            fits.append(len(mod))
            return sweep

        period = mod.period
        for lo, hi in [(0.0, 1.0), (0.1, 0.4), (0.5, 0.9)]:
            window = Period(
                period.tmin + lo * period.duration, period.tmin + hi * period.duration
            )
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "compute_voting", checked)
                got = RangeThenCluster(frame, params).query(window)
            sliced = frame.slice_period(window)
            direct = S2TClustering(params).fit(sliced)
            assert membership_signature(got) == membership_signature(direct)
            assert got.num_clusters > 0
        assert len(fits) == 3


def test_s2t_batch_memberships_equal_the_oracle_pipeline(monkeypatch):
    """Aircraft 400 x 50 at seed 1100 (the ``s2t_batch`` data): same answer
    from the per-target voting kernel and the per-trajectory segmentation."""
    mod, _truth = aircraft_scenario(n_trajectories=400, n_samples=50, seed=1100, name="f")
    frame = MODFrame.from_mod(mod)
    params = S2TParams(min_cluster_support=2)
    sweep = S2TClustering(params).fit(frame)
    monkeypatch.setattr(pipeline, "compute_voting", oracle_voting)
    monkeypatch.setattr(pipeline, "segment_frame", oracle_segment_frame)
    oracle = S2TClustering(params).fit(frame)
    assert membership_signature(sweep) == membership_signature(oracle)
    assert [c.representative.key for c in sweep.clusters] == [
        c.representative.key for c in oracle.clusters
    ]
    assert sweep.extras == oracle.extras
    assert sweep.num_clusters > 1
