"""Unit tests for SaCO representative sampling."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.distances import spatiotemporal_distance
from repro.s2t.params import S2TParams
from repro.hermes.frame import MODFrame
from repro.s2t.sampling import sample, select_representatives
from tests.conftest import make_linear_trajectory
from tests.s2t.conftest import saco_candidates


def make_subs_with_masses():
    """Three co-located sub-trajectories plus one far away, with given masses."""
    base = make_linear_trajectory("a", "0", (0, 0), (10, 0))
    near1 = make_linear_trajectory("b", "0", (0, 0.2), (10, 0.2))
    near2 = make_linear_trajectory("c", "0", (0, 0.4), (10, 0.4))
    far = make_linear_trajectory("z", "0", (0, 60), (10, 60))
    subs = [t.subtrajectory(0, t.num_points - 1) for t in (base, near1, near2, far)]
    masses = {subs[0].key: 3.0, subs[1].key: 2.5, subs[2].key: 2.0, subs[3].key: 0.5}
    return subs, masses


class TestSelectRepresentatives:
    def test_empty_input(self, small_mod):
        params = S2TParams().resolved(small_mod)
        reps, elapsed = select_representatives([], {}, params)
        assert reps == []
        assert elapsed >= 0.0

    def test_highest_mass_selected_first(self, small_mod):
        subs, masses = make_subs_with_masses()
        params = S2TParams(eps=1.0, coverage_radius=2.0, max_representatives=1).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        assert len(reps) == 1
        assert reps[0].key == subs[0].key

    def test_coverage_prefers_spread_out_representatives(self, small_mod):
        subs, masses = make_subs_with_masses()
        params = S2TParams(eps=1.0, coverage_radius=2.0, max_representatives=2).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        # The second representative must be the far-away one even though the
        # near duplicates have higher raw mass: they are already covered.
        assert {r.obj_id for r in reps} == {"a", "z"}

    def test_max_representatives_respected(self, small_mod):
        subs, masses = make_subs_with_masses()
        params = S2TParams(eps=1.0, coverage_radius=2.0, max_representatives=3).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        assert len(reps) <= 3

    def test_gain_threshold_stops_selection(self, small_mod):
        subs, masses = make_subs_with_masses()
        # With a very high threshold only the first representative survives.
        params = S2TParams(eps=1.0, coverage_radius=2.0, gain_threshold=0.9).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        assert len(reps) <= 2

    def test_zero_mass_candidates_never_selected(self, small_mod):
        subs, _ = make_subs_with_masses()
        masses = {s.key: 0.0 for s in subs}
        params = S2TParams(eps=1.0, coverage_radius=2.0).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        assert reps == []

    def test_representatives_are_input_objects(self, small_mod):
        subs, masses = make_subs_with_masses()
        params = S2TParams(eps=1.0, coverage_radius=2.0).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        assert all(any(r is s for s in subs) for r in reps)


def _select_representatives_scalar(subtrajectories, voting_mass, params):
    """The pre-batching loop — one scalar distance per candidate per selected
    representative — kept as the selected-set identity oracle."""
    if not subtrajectories:
        return []
    radius = params.coverage_radius
    masses = np.array([voting_mass.get(sub.key, 0.0) for sub in subtrajectories])
    gains = masses.astype(float).copy()
    selected = []
    max_reps = params.max_representatives or len(subtrajectories)
    first_gain = None
    while len(selected) < max_reps:
        best_idx = int(np.argmax(gains))
        best_gain = float(gains[best_idx])
        if best_gain <= 0:
            break
        if first_gain is None:
            first_gain = best_gain
        elif best_gain < params.gain_threshold * first_gain:
            break
        rep = subtrajectories[best_idx]
        selected.append(rep)
        gains[best_idx] = -math.inf
        for i, sub in enumerate(subtrajectories):
            if math.isinf(gains[i]) and gains[i] < 0:
                continue
            dist = spatiotemporal_distance(rep.traj, sub.traj, max_samples=32)
            coverage = (
                0.0 if math.isinf(dist) else math.exp(-(dist * dist) / (2.0 * radius * radius))
            )
            gains[i] = min(gains[i], masses[i] * (1.0 - coverage))
    return selected


def _assert_same_selection(reps, oracle):
    assert len(reps) == len(oracle)
    assert all(rep is ref for rep, ref in zip(reps, oracle))


class TestBatchedSelectionMatchesScalarOracle:
    """Same sub-trajectories, in the same order, as the scalar loop."""

    def test_on_every_scenario(self, segmented_scenario):
        _mod, subs, masses, params = segmented_scenario
        reps, _ = select_representatives(subs, masses, params)
        assert len(reps) > 1
        _assert_same_selection(reps, _select_representatives_scalar(subs, masses, params))

    def test_on_every_scenario_with_budget_and_threshold(self, segmented_scenario):
        _mod, subs, masses, params = segmented_scenario
        for cut in (
            S2TParams(max_representatives=5),
            S2TParams(gain_threshold=0.5),
            S2TParams(gain_threshold=0.0, max_representatives=60),
        ):
            cut = cut.resolved(_mod)
            reps, _ = select_representatives(subs, masses, cut)
            _assert_same_selection(reps, _select_representatives_scalar(subs, masses, cut))

    @settings(max_examples=150, deadline=None)
    @given(
        saco_candidates(),
        st.sampled_from([None, 1, 2, 3]),
        st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]),
        st.sampled_from([0.5, 3.0, 25.0]),
    )
    def test_on_generated_edge_cases(self, candidates, max_reps, threshold, radius):
        subs, masses = candidates
        params = S2TParams(
            sigma=1.0, eps=radius / 2.0, coverage_radius=radius,
            max_representatives=max_reps, gain_threshold=threshold,
        )
        reps, _ = select_representatives(subs, masses, params)
        _assert_same_selection(reps, _select_representatives_scalar(subs, masses, params))
        if max_reps is not None:
            assert len(reps) <= max_reps
        if all(mass == 0.0 for mass in masses.values()):
            assert reps == []

    def test_duplicate_candidates_first_index_wins(self, small_mod):
        base = make_linear_trajectory("a", "0", (0, 0), (10, 0))
        twin = make_linear_trajectory("b", "0", (0, 0), (10, 0))
        subs = [t.subtrajectory(0, t.num_points - 1) for t in (base, twin)]
        masses = {sub.key: 2.0 for sub in subs}
        params = S2TParams(eps=1.0, coverage_radius=2.0).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        # The twin is fully covered (distance 0) once the first is selected.
        assert reps == [subs[0]] and reps[0] is subs[0]

    def test_disjoint_lifespans_are_never_covered(self, small_mod):
        early = make_linear_trajectory("e", "0", t0=0, t1=10)
        late = make_linear_trajectory("l", "0", t0=100, t1=110)
        subs = [t.subtrajectory(0, t.num_points - 1) for t in (early, late)]
        masses = {subs[0].key: 3.0, subs[1].key: 1.0}
        params = S2TParams(eps=1.0, coverage_radius=2.0).resolved(small_mod)
        reps, _ = select_representatives(subs, masses, params)
        # Same place, different time: inf distance, coverage 0, both selected.
        assert [r.obj_id for r in reps] == ["e", "l"]

    def test_the_entry_point_is_sample_over_the_sub_frame(self, segmented_scenario):
        """``select_representatives`` picks what ``sample`` picks over its candidates' frame."""
        _mod, subs, masses, params = segmented_scenario
        frame = MODFrame.from_trajectories(sub.traj for sub in subs)
        picked, _rows = sample(frame, np.array([masses.get(sub.key, 0.0) for sub in subs]), params)
        reps, _ = select_representatives(subs, masses, params)
        _assert_same_selection(reps, [subs[row] for row in picked])
