"""Shared fixtures: small deterministic MODs and scenario data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import aircraft_scenario, lane_scenario
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory


def run_sql(engine, sql: str, params=None) -> list[dict]:
    """Execute one SQL statement over an engine through the public API v1."""
    from repro.api import Connection

    return Connection(engine=engine).execute(sql, params).fetchall()


def membership_signature(result) -> tuple:
    """Hashable view of exactly which sub-trajectories cluster together."""
    clusters = tuple(
        tuple(sorted(member.key for member in cluster.members))
        for cluster in result.clusters
    )
    outliers = tuple(sorted(outlier.key for outlier in result.outliers))
    return clusters, outliers


def restriction_signature(restricted) -> tuple:
    """Hashable, bit-exact view of a QuT-restricted member list."""
    return tuple(
        (
            sub.parent_key,
            sub.start_idx,
            sub.end_idx,
            sub.traj.xs.tobytes(),
            sub.traj.ys.tobytes(),
            sub.traj.ts.tobytes(),
        )
        for sub in restricted
    )


def make_linear_trajectory(
    obj_id: str = "obj",
    traj_id: str = "0",
    start: tuple[float, float] = (0.0, 0.0),
    end: tuple[float, float] = (10.0, 0.0),
    t0: float = 0.0,
    t1: float = 100.0,
    n: int = 11,
) -> Trajectory:
    """A straight constant-speed trajectory, handy for exact expectations."""
    ts = np.linspace(t0, t1, n)
    xs = np.linspace(start[0], end[0], n)
    ys = np.linspace(start[1], end[1], n)
    return Trajectory(obj_id, traj_id, xs, ys, ts)


@pytest.fixture
def linear_trajectory() -> Trajectory:
    return make_linear_trajectory()


@pytest.fixture
def parallel_pair() -> tuple[Trajectory, Trajectory]:
    """Two trajectories moving in parallel, 1 unit apart, same time span."""
    a = make_linear_trajectory("a", "0", (0.0, 0.0), (10.0, 0.0))
    b = make_linear_trajectory("b", "0", (0.0, 1.0), (10.0, 1.0))
    return a, b


@pytest.fixture
def small_mod() -> MOD:
    """Three co-moving objects plus one far-away outlier."""
    mod = MOD(name="small")
    mod.add(make_linear_trajectory("a", "0", (0.0, 0.0), (10.0, 0.0)))
    mod.add(make_linear_trajectory("b", "0", (0.0, 0.5), (10.0, 0.5)))
    mod.add(make_linear_trajectory("c", "0", (0.0, 1.0), (10.0, 1.0)))
    mod.add(make_linear_trajectory("z", "0", (0.0, 50.0), (10.0, 80.0)))
    return mod


@pytest.fixture(scope="session")
def lanes_small():
    """A small lane scenario (fixed seed) shared across integration tests."""
    return lane_scenario(n_trajectories=24, n_lanes=3, n_samples=40, seed=11)


@pytest.fixture(scope="session")
def flights_small():
    """A small aircraft scenario (fixed seed) shared across integration tests."""
    return aircraft_scenario(n_trajectories=30, n_samples=50, seed=5)
