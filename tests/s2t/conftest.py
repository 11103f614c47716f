"""Shared SaCO test inputs: segmented scenarios and a generated candidate set.

The sampling and clustering identity pins (``test_sampling.py``,
``test_clustering.py``, ``test_pipeline.py``) compare the frame-native
phases against scalar oracles on the same two families of inputs:

* the five ``repro.datagen`` scenarios, voted and segmented for real;
* hypothesis-generated candidate lists that force the edge cases the
  scenarios rarely hit — exact duplicates with equal mass (ties), disjoint
  lifespans (``inf`` distance), a single candidate, all-zero masses.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.datagen import (
    aircraft_scenario,
    lane_scenario,
    maritime_scenario,
    orbit_scenario,
    urban_scenario,
)
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.s2t.params import S2TParams
from repro.s2t.segmentation import segment_mod
from repro.s2t.voting import compute_voting

SCENARIO_MAKERS = {
    "lanes": lambda: lane_scenario(n_trajectories=40, n_samples=40, seed=3),
    "aircraft": lambda: aircraft_scenario(n_trajectories=40, n_samples=50, seed=3),
    "orbit": lambda: orbit_scenario(n_trajectories=40, n_samples=40, seed=3),
    "urban": lambda: urban_scenario(n_trajectories=40, n_samples=40, seed=3),
    "maritime": lambda: maritime_scenario(n_trajectories=40, n_samples=40, seed=3),
}


@pytest.fixture(scope="session", params=sorted(SCENARIO_MAKERS))
def segmented_scenario(request):
    """``(mod, subtrajectories, voting_mass, resolved params)`` of one scenario."""
    mod, _truth = SCENARIO_MAKERS[request.param]()
    params = S2TParams().resolved(mod)
    profile = compute_voting(mod, params)
    subs, masses, _ = segment_mod(mod, profile, params)
    return mod, subs, masses, params


# Lifespans the generated candidates draw from: overlapping, nested, merely
# touching (zero common duration -> inf) and fully disjoint pairs all occur.
_WINDOWS = [(0.0, 100.0), (40.0, 160.0), (100.0, 200.0), (20.0, 60.0), (500.0, 600.0)]


@st.composite
def saco_candidates(draw, min_size: int = 1, max_size: int = 12):
    """``(subtrajectories, voting_mass)`` with planted ties and disjoint lifespans.

    Structure (how many candidates, which are exact duplicates of an earlier
    one, which lifespan each has, whether every mass is zero) is drawn by
    hypothesis; the reals (offsets, wiggle, masses) come from a seeded
    generator so two *different* candidates are never tied by accident.  A
    duplicate copies its source's samples and mass under a new object id, so
    its gain and distances are bit-equal to the source's: the earlier index
    must win.
    """
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    all_zero = draw(st.sampled_from([False, False, False, True]))
    subs: list[SubTrajectory] = []
    masses: dict[tuple[str, str, int, int], float] = {}
    for i in range(n):
        if subs and draw(st.booleans()):
            source = subs[draw(st.integers(min_value=0, max_value=len(subs) - 1))]
            traj = Trajectory(f"c{i}", "0", source.traj.xs, source.traj.ys, source.traj.ts)
            mass = masses[source.key]
        else:
            t0, t1 = _WINDOWS[draw(st.integers(min_value=0, max_value=len(_WINDOWS) - 1))]
            m = draw(st.integers(min_value=2, max_value=9))
            ts = np.linspace(t0, t1, m)
            xs = 0.1 * ts + rng.normal(0.0, 0.3, m)
            ys = rng.uniform(-15.0, 15.0) + rng.normal(0.0, 0.3, m)
            traj = Trajectory(f"c{i}", "0", xs, ys, ts)
            mass = 0.0 if all_zero else float(rng.uniform(0.0, 5.0))
        sub = traj.subtrajectory(0, traj.num_points - 1)
        subs.append(sub)
        masses[sub.key] = mass
    return subs, masses
