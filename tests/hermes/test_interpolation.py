"""Unit tests for temporal synchronisation helpers."""

import numpy as np

from repro.hermes.interpolation import (
    common_period,
    common_time_grid,
    synchronize,
)
from repro.hermes.types import Period
from tests.conftest import make_linear_trajectory


class TestCommonPeriod:
    def test_overlapping(self):
        a = make_linear_trajectory("a", "0", t0=0, t1=100)
        b = make_linear_trajectory("b", "0", t0=50, t1=150)
        assert common_period(a, b) == Period(50, 100)

    def test_disjoint(self):
        a = make_linear_trajectory("a", "0", t0=0, t1=10)
        b = make_linear_trajectory("b", "0", t0=20, t1=30)
        assert common_period(a, b) is None


class TestCommonTimeGrid:
    def test_respects_max_samples(self):
        grid = common_time_grid(Period(0, 1000), resolution=1.0, max_samples=64)
        assert len(grid) == 64

    def test_resolution_determines_count(self):
        grid = common_time_grid(Period(0, 10), resolution=1.0, max_samples=1000)
        assert len(grid) == 11
        assert grid[0] == 0 and grid[-1] == 10

    def test_instant_period(self):
        grid = common_time_grid(Period(5, 5))
        assert list(grid) == [5.0]

    def test_none_resolution_uses_max_samples(self):
        grid = common_time_grid(Period(0, 10), resolution=None, max_samples=17)
        assert len(grid) == 17


class TestSynchronize:
    def test_aligned_sampling(self):
        a = make_linear_trajectory("a", "0", (0, 0), (10, 0), t0=0, t1=100)
        b = make_linear_trajectory("b", "0", (0, 1), (10, 1), t0=0, t1=100)
        sync = synchronize(a, b, max_samples=21)
        assert sync is not None
        ts, pa, pb = sync
        assert len(ts) == 21
        assert pa.shape == (21, 2) and pb.shape == (21, 2)
        np.testing.assert_allclose(pb[:, 1] - pa[:, 1], 1.0)

    def test_disjoint_returns_none(self):
        a = make_linear_trajectory("a", "0", t0=0, t1=10)
        b = make_linear_trajectory("b", "0", t0=100, t1=110)
        assert synchronize(a, b) is None

