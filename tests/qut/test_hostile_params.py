"""QuT refuses parameters and MODs it has no answer for, loudly and typed.

The QuT half of two hostile-input contract entries:

* a set ``tau`` / ``delta`` / ``distance_threshold`` that is not finite and
  positive, and a negative or non-finite ``temporal_tolerance``, are refused
  by ``QuTParams`` with a ``ValueError`` naming the field — so by SQL
  ``QUT(...)`` and the fluent ``Dataset.qut`` too, as ``SQLExecutionError``.
  They used to fail deep in the tree ("cannot convert float NaN to
  integer" from the grid) or with an error about ``sigma``, a parameter
  the caller never passed;
* a MOD whose x/y extent or diagonal is not finite is refused by
  ``QuTParams.resolved`` whether or not ``d`` is given — it used to raise a
  bare ``OverflowError``;
* a NaN window bound is refused by ``Period`` — it used to be answered with
  one empty ``outliers`` row — while ``(-inf, inf)`` still means the whole
  lifespan.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import repro
from repro.datagen import lane_scenario
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree
from repro.sql.errors import SQLExecutionError
from tests.s2t.test_hostile_params import NOT_FINITE_AND_POSITIVE, with_far_trajectory


@pytest.fixture(scope="module")
def lanes():
    return lane_scenario(n_trajectories=30, seed=1, name="f")[0]


def connect(mod: MOD):
    conn = repro.connect()
    conn.engine.load_mod(mod.name, mod)
    return conn


def window_of(mod: MOD) -> str:
    period = mod.period
    return f"{period.tmin + 0.2 * period.duration}, {period.tmin + 0.6 * period.duration}"


class TestParamsRefused:
    @pytest.mark.parametrize("field", ["tau", "delta", "distance_threshold"])
    @pytest.mark.parametrize("value", NOT_FINITE_AND_POSITIVE)
    def test_grid_and_threshold_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            QuTParams(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan])
    def test_temporal_tolerance_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="temporal_tolerance must be finite and non-negative"):
            QuTParams(temporal_tolerance=value)

    def test_boundary_values_accepted(self):
        params = QuTParams(tau=1e-300, delta=1e300, distance_threshold=5.0, temporal_tolerance=0.0)
        assert params.temporal_tolerance == 0.0

    @pytest.mark.parametrize(
        "args, field",
        [
            ("1e400", "tau"),
            ("NULL, 1e400", "delta"),
            ("0", "tau"),
            ("NULL, -2", "delta"),
            ("NULL, NULL, -1", "temporal_tolerance"),
            ("NULL, NULL, NULL, -1", "distance_threshold"),
            ("NULL, NULL, NULL, 0", "distance_threshold"),
            ("NULL, NULL, NULL, 1e400", "distance_threshold"),
        ],
    )
    def test_sql_raises_sql_execution_error(self, lanes, args, field):
        conn = connect(lanes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SQLExecutionError, match=f"{field} must be finite"):
                conn.execute(f"SELECT QUT(f, {window_of(lanes)}, {args})").fetchall()
        with pytest.raises(KeyError, match="no clustering has been run"):
            conn.engine.last_result("f")

    @pytest.mark.parametrize("args", ["NULL, NULL, NULL, NULL, 1e400"])
    def test_sql_integer_arguments_must_be_finite(self, lanes, args):
        conn = connect(lanes)
        with pytest.raises(SQLExecutionError, match="must be a finite number, got inf"):
            conn.execute(f"SELECT QUT(f, {window_of(lanes)}, {args})").fetchall()

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"distance": math.nan}, "distance_threshold"),
            ({"tau": math.inf}, "tau"),
            ({"delta": -1.0}, "delta"),
            ({"tolerance": -1.0}, "temporal_tolerance"),
            ({"tolerance": math.nan}, "temporal_tolerance"),
        ],
    )
    def test_fluent_raises_sql_execution_error(self, lanes, kwargs, field):
        conn = connect(lanes)
        period = lanes.period
        with pytest.raises(SQLExecutionError, match=f"{field} must be finite"):
            conn.dataset("f").qut(period.tmin, period.tmax, **kwargs).run()


class TestExtremeMagnitudes:
    @pytest.mark.parametrize("magnitude", [1e300, 1e308, np.finfo(float).max])
    @pytest.mark.parametrize("given", [{}, {"distance_threshold": 1.0}], ids=["defaults", "explicit"])
    def test_resolved_refuses_a_non_finite_diagonal(self, lanes, magnitude, given):
        mod = with_far_trajectory(lanes, magnitude)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="spatial diagonal is not finite"):
                QuTParams(**given).resolved(mod)
            with pytest.raises(ValueError, match="spatial diagonal is not finite"):
                ReTraTree.build(mod, QuTParams(**given))

    @pytest.mark.parametrize("args", ["0, 1", "0, 1, NULL, NULL, NULL, 1", "0, 1, 5, 1"])
    def test_sql_and_fluent_raise_sql_execution_error(self, lanes, args):
        conn = connect(with_far_trajectory(lanes, 1e300))
        with pytest.raises(SQLExecutionError, match="spatial diagonal is not finite"):
            conn.execute(f"SELECT QUT(g, {args})").fetchall()
        with pytest.raises(SQLExecutionError, match="spatial diagonal is not finite"):
            conn.dataset("g").qut(0.0, 1.0).run()

    def test_zero_extent_needs_an_explicit_distance_threshold(self):
        still = [
            Trajectory(f"s{i}", "0", np.full(3, 4.0), np.full(3, -2.0), np.arange(3.0) + i)
            for i in range(2)
        ]
        mod = MOD(name="still", trajectories=still)
        with pytest.raises(ValueError, match="zero x/y extent"):
            QuTParams().resolved(mod)
        resolved = QuTParams(distance_threshold=1.0).resolved(mod)
        assert (resolved.distance_threshold, resolved.s2t.sigma) == (1.0, 0.5)

    def test_a_large_finite_diagonal_still_resolves(self, lanes):
        """1e150 squares to 1e300: finite, so it resolves, with the same expression."""
        mod = with_far_trajectory(lanes, 1e150)
        bbox = mod.bbox
        assert QuTParams().resolved(mod).distance_threshold == 0.05 * (
            (bbox.dx**2 + bbox.dy**2) ** 0.5
        )

    def test_resolved_values_unchanged_on_ordinary_data(self, lanes):
        bbox, period = lanes.bbox, lanes.period
        d = 0.05 * ((bbox.dx**2 + bbox.dy**2) ** 0.5)
        tau = max(period.duration / 4.0, 1e-9)
        resolved = QuTParams().resolved(lanes)
        assert (resolved.tau, resolved.delta, resolved.distance_threshold) == (tau, tau / 4.0, d)
        assert (resolved.s2t.sigma, resolved.s2t.eps) == (d / 2.0, d)


class TestWindowBounds:
    @pytest.mark.parametrize(
        "bounds", [(math.nan, 0.6), (0.2, math.nan), (math.nan, math.nan)], ids=["wi", "we", "both"]
    )
    def test_nan_bound_refused_on_every_route(self, lanes, bounds):
        period = lanes.period
        wi, we = (period.tmin + f * period.duration for f in bounds)
        conn = connect(lanes)
        refused = "Period requires tmin <= tmax"
        with pytest.raises(SQLExecutionError, match=refused):
            conn.execute("SELECT QUT(f, :a, :b)", {"a": wi, "b": we}).fetchall()
        prepared = conn.prepare("SELECT QUT(f, :a, :b)")
        with pytest.raises(SQLExecutionError, match=refused):
            prepared.execute({"a": wi, "b": we}).fetchall()
        with pytest.raises(SQLExecutionError, match=refused):
            conn.dataset("f").qut(wi, we).run()
        with pytest.raises(ValueError, match=refused):
            conn.engine.qut("f", Period(wi, we))
        with pytest.raises(KeyError, match="no clustering has been run"):
            conn.engine.last_result("f")

    def test_infinite_bounds_mean_the_whole_lifespan(self, lanes):
        conn = connect(lanes)
        period = lanes.period
        whole = conn.dataset("f").qut(period.tmin, period.tmax).run()
        assert whole and whole[-1]["cluster_id"] == "outliers"
        assert conn.dataset("f").qut(-math.inf, math.inf).run() == whole
        rows = conn.execute("SELECT QUT(f, :a, :b)", {"a": -math.inf, "b": math.inf}).fetchall()
        assert rows == whole
