"""The batched NaTS segmentation against the per-trajectory path it replaced.

``tests/s2t/oracles.py`` keeps the per-trajectory DP loop and ``segment_mod``
verbatim.  :func:`~repro.s2t.segmentation.segment_frame` must give the same
pieces (cuts), bit-equal masses and a byte-equal sub-trajectory frame, on
generated batches that mix ragged rows, rows too short to cut, constant rows,
exact cost ties and ``min_len`` edges, and on the five ``repro.datagen``
scenarios under every degradation profile — where the whole fit must also
give the same memberships.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.s2t.pipeline as pipeline
from repro.datagen.profiles import PROFILES
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import Trajectory
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.segmentation import segment_frame
from repro.s2t.voting import VotingProfile, compute_voting
from tests.conftest import membership_signature
from tests.s2t.conftest import SCENARIO_MAKERS
from tests.s2t.oracles import oracle_segment_frame


def assert_same_segmentation(got, want) -> None:
    """Same pieces in the same order, bit-equal masses, byte-equal sub-frame."""
    got_frame, got_subs, got_masses = got
    want_frame, want_subs, want_masses = want
    assert [s.key for s in got_subs] == [s.key for s in want_subs]
    assert [s.traj.key for s in got_subs] == [s.traj.key for s in want_subs]
    assert got_masses.tobytes() == want_masses.tobytes()
    assert got_frame.keys == want_frame.keys
    for column in ("xs", "ys", "ts", "offsets"):
        assert getattr(got_frame, column).tobytes() == getattr(want_frame, column).tobytes()
    for got_sub, want_sub in zip(got_subs, want_subs):
        assert got_sub.traj == want_sub.traj


def frame_with_votes(signals: list[np.ndarray]) -> tuple[MODFrame, VotingProfile]:
    """One trajectory per signal (``len(signal) + 1`` samples) and its votes."""
    trajectories = []
    profile = VotingProfile()
    for i, votes in enumerate(signals):
        ts = np.arange(len(votes) + 1, dtype=float) * 0.5 + i
        traj = Trajectory(f"o{i}", "0", np.sin(ts), np.cos(ts) * i, ts)
        trajectories.append(traj)
        profile.votes[traj.key] = votes
    return MODFrame.from_trajectories(trajectories), profile


@st.composite
def signal_batches(draw):
    """``(signals, min_len)``: one batch mixing every shape the DP treats apart."""
    min_len = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    signals = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        kind = draw(
            st.sampled_from(["ragged", "short", "constant", "plateau", "alternating", "edge"])
        )
        if kind == "ragged":
            values = rng.uniform(0.0, 10.0, draw(st.integers(min_value=1, max_value=45)))
        elif kind == "short":  # n <= min_len: never cut
            values = rng.uniform(0.0, 10.0, draw(st.integers(min_value=1, max_value=min_len)))
        elif kind == "constant":
            level = draw(st.sampled_from([0.0, 1.0, 3.7, 1e6]))
            values = np.full(draw(st.integers(min_value=1, max_value=40)), level)
        elif kind == "plateau":  # symmetric integer steps: exact cost ties
            half = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6))
            run = draw(st.integers(min_value=1, max_value=4))
            values = np.repeat(np.array(half + half[::-1], dtype=float), run)
        elif kind == "alternating":  # every split of a period costs the same
            period = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=3))
            values = np.tile(period, draw(st.integers(min_value=1, max_value=12)))
        else:  # lengths at the min_len boundaries
            n = draw(st.sampled_from([min_len, min_len + 1, 2 * min_len - 1, 2 * min_len,
                                      2 * min_len + 1, 3 * min_len]))
            values = np.where(np.arange(n) < n // 2, 0.0, 5.0) + rng.normal(0.0, 0.1, n)
        signals.append(np.asarray(values, dtype=float))
    return signals, min_len


class TestBatchedKernelEqualsOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        signal_batches(),
        st.sampled_from([1e-4, 0.01, 0.05, 0.5, 5.0]),
        st.sampled_from(["dp", "greedy"]),
    )
    def test_one_batch_gives_the_per_row_cuts(self, batch, penalty, method):
        signals, min_len = batch
        params = S2TParams(
            segmentation_method=method,
            min_segment_samples=min_len,
            segmentation_penalty=penalty,
        )
        frame, profile = frame_with_votes(signals)
        assert_same_segmentation(
            segment_frame(frame, profile, params), oracle_segment_frame(frame, profile, params)
        )


# The quality matrix's second parameter set: triangular kernel, the smallest
# legal pieces and a tiny penalty, so segmentation cuts as often as it can.
PARAM_SETS = {
    "default": {},
    "fine": {
        "voting_kernel": "triangular",
        "min_segment_samples": 2,
        "segmentation_penalty": 1e-4,
    },
}


@pytest.mark.parametrize("param_set", sorted(PARAM_SETS))
@pytest.mark.parametrize("profile_name", sorted(PROFILES))
@pytest.mark.parametrize("scenario", sorted(SCENARIO_MAKERS))
def test_whole_fit_equals_the_oracle_segmentation(
    scenario, profile_name, param_set, monkeypatch
):
    mod, truth = SCENARIO_MAKERS[scenario]()
    mod, _truth = PROFILES[profile_name]().apply(mod, truth, seed=11)
    frame = MODFrame.from_mod(mod)
    params = S2TParams(min_cluster_support=2, **PARAM_SETS[param_set])
    resolved = params.resolved(mod)
    votes = compute_voting(mod, resolved, frame=frame)
    assert_same_segmentation(
        segment_frame(frame, votes, resolved), oracle_segment_frame(frame, votes, resolved)
    )

    batched = S2TClustering(params).fit(mod, frame=frame)
    monkeypatch.setattr(pipeline, "segment_frame", oracle_segment_frame)
    oracle = S2TClustering(params).fit(mod, frame=frame)
    assert membership_signature(batched) == membership_signature(oracle)
    assert [c.representative.key for c in batched.clusters] == [
        c.representative.key for c in oracle.clusters
    ]
    assert batched.extras == oracle.extras
