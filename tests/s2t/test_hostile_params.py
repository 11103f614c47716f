"""S2T refuses parameters and MODs it has no answer for, loudly and typed.

Two entries of the hostile-input contract:

* a set ``sigma`` / ``eps`` / ``coverage_radius`` that is not finite and
  positive and a negative or non-finite ``temporal_tolerance`` are refused by ``S2TParams`` (so by SQL ``S2T(...)``
  and the fluent ``Dataset.s2t`` too, as ``SQLExecutionError``) — they used
  to leak a ``ZeroDivisionError``, run with ``sigma = inf`` or silently
  return all-outliers;
* a MOD whose x/y extent or diagonal is not finite (samples near
  ``±float max``) is refused by ``S2TParams.resolved`` whether or not
  ``sigma`` / ``eps`` are given — it used to raise a bare ``OverflowError``
  or return one cluster computed from NaN votes.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import repro
from repro.datagen import lane_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.sql.errors import SQLExecutionError
from tests.conftest import membership_signature

NOT_FINITE_AND_POSITIVE = [0.0, -1.0, math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def lanes():
    return lane_scenario(n_trajectories=30, seed=1, name="f")[0]


def with_far_trajectory(mod: MOD, magnitude: float) -> MOD:
    """``mod`` plus one 3-sample trajectory reaching ``±magnitude``."""
    far = Trajectory(
        "far",
        "0",
        np.array([-magnitude, 0.0, magnitude]),
        np.array([0.0, magnitude, 0.0]),
        np.array([0.0, 1.0, 2.0]),
    )
    return MOD(name="g", trajectories=[*mod.trajectories(), far])


def connect(mod: MOD):
    conn = repro.connect()
    conn.engine.load_mod(mod.name, mod)
    return conn


class TestParamsRefused:
    @pytest.mark.parametrize("field", ["sigma", "eps", "coverage_radius"])
    @pytest.mark.parametrize("value", NOT_FINITE_AND_POSITIVE)
    def test_thresholds_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            S2TParams(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_temporal_tolerance_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="temporal_tolerance must be finite and non-negative"):
            S2TParams(temporal_tolerance=value)

    def test_boundary_values_accepted(self):
        params = S2TParams(sigma=1e-300, eps=1e300, coverage_radius=5.0, temporal_tolerance=0.0)
        assert (params.sigma, params.eps) == (1e-300, 1e300)

    @pytest.mark.parametrize(
        "sql, field",
        [
            ("SELECT S2T(f, 0, NULL)", "sigma"),
            ("SELECT S2T(f, -1, NULL)", "sigma"),
            ("SELECT S2T(f, 1e400, NULL)", "sigma"),
            ("SELECT S2T(f, NULL, 0)", "eps"),
            ("SELECT S2T(f, NULL, -5)", "eps"),
        ],
    )
    def test_sql_raises_sql_execution_error(self, lanes, sql, field):
        conn = connect(lanes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SQLExecutionError, match=f"{field} must be finite and positive"):
                conn.execute(sql).fetchall()
        with pytest.raises(KeyError, match="no clustering has been run"):
            conn.engine.last_result("f")

    @pytest.mark.parametrize("kwargs", [{"sigma": 0}, {"sigma": math.nan}, {"eps": -1.0}])
    def test_fluent_raises_sql_execution_error(self, lanes, kwargs):
        conn = connect(lanes)
        with pytest.raises(SQLExecutionError, match="must be finite and positive"):
            conn.dataset("f").s2t(**kwargs).run()


class TestExtremeMagnitudes:
    @pytest.mark.parametrize("magnitude", [1e300, 1e308, np.finfo(float).max])
    @pytest.mark.parametrize("given", [{}, {"sigma": 1.0, "eps": 1.0}], ids=["defaults", "explicit"])
    def test_resolved_refuses_a_non_finite_diagonal(self, lanes, magnitude, given):
        mod = with_far_trajectory(lanes, magnitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spatial diagonal is not finite") as walked:
                S2TParams(**given).resolved(mod)
            with pytest.raises(ValueError) as framed:
                S2TParams(**given).resolved(MODFrame.from_mod(mod))
            assert str(framed.value) == str(walked.value)
            with pytest.raises(ValueError, match="spatial diagonal is not finite"):
                S2TClustering(S2TParams(**given)).fit(mod)

    @pytest.mark.parametrize(
        "sql",
        ["SELECT S2T(g)", "SELECT S2T(g, 1, 1)", "SELECT S2T(g, NULL, NULL, 2, 'batched', 1, 2)"],
    )
    def test_sql_and_fluent_raise_sql_execution_error(self, lanes, sql):
        conn = connect(with_far_trajectory(lanes, 1e308))
        with pytest.raises(SQLExecutionError, match="spatial diagonal is not finite"):
            conn.execute(sql).fetchall()
        with pytest.raises(SQLExecutionError, match="spatial diagonal is not finite"):
            conn.dataset("g").s2t().run()

    def test_zero_extent_needs_explicit_sigma_and_eps(self):
        """Defaults are fractions of the diagonal: zero would be refused anyway."""
        still = [
            Trajectory(f"s{i}", "0", np.full(3, 4.0), np.full(3, -2.0), np.arange(3.0) + i)
            for i in range(2)
        ]
        mod = MOD(name="still", trajectories=still)
        with pytest.raises(ValueError, match="zero x/y extent"):
            S2TParams().resolved(mod)
        with pytest.raises(ValueError, match="zero x/y extent"):
            S2TParams(sigma=1.0).resolved(mod)
        result = S2TClustering(S2TParams(sigma=1.0, eps=1.0)).fit(mod)
        assert result.num_clusters + result.num_outliers >= 1

    def test_a_large_finite_diagonal_still_resolves(self, lanes):
        """1e150 squares to 1e300: finite, so it resolves, with the same expression."""
        mod = with_far_trajectory(lanes, 1e150)
        bbox = mod.bbox
        resolved = S2TParams().resolved(mod)
        diag = ((bbox.dx) ** 2 + (bbox.dy) ** 2) ** 0.5
        assert resolved.sigma == 0.03 * diag
        assert resolved.eps == 0.05 * diag

    def test_a_large_finite_magnitude_fits_like_its_power_of_two_scaling(self, lanes):
        """At 1e150 every squared offset is still finite, so every vote is.
        Scaling by 2**-400 is exact and sends no squared difference
        subnormal, so the answer must not move."""
        mod = with_far_trajectory(lanes, 1e150)
        scale = 2.0**-400
        scaled = MOD(
            name="g",
            trajectories=[
                Trajectory(t.obj_id, t.traj_id, t.xs * scale, t.ys * scale, t.ts) for t in mod
            ],
        )
        fit = S2TClustering(S2TParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit.fit(mod)
            reference = S2TClustering(S2TParams()).fit(scaled)
        assert fit.last_voting_profile is not None
        assert all(np.isfinite(v).all() for v in fit.last_voting_profile.votes.values())
        assert membership_signature(result) == membership_signature(reference)
        assert result.num_clusters > 0

    def test_resolved_values_unchanged_on_ordinary_data(self, lanes):
        bbox = lanes.bbox
        diag = ((bbox.dx) ** 2 + (bbox.dy) ** 2) ** 0.5
        resolved = S2TParams().resolved(lanes)
        assert (resolved.sigma, resolved.eps, resolved.coverage_radius) == (
            0.03 * diag,
            0.05 * diag,
            2.0 * (0.05 * diag),
        )
