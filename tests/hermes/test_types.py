"""Unit tests for the spatiotemporal primitive types."""

import math

import pytest

from repro.hermes.types import BoxST, Period, PointST, SegmentST


class TestPeriod:
    def test_duration(self):
        assert Period(2.0, 5.0).duration == 3.0

    def test_instant_period_allowed(self):
        assert Period(3.0, 3.0).duration == 0.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Period(5.0, 2.0)

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match="Period requires tmin <= tmax"):
            Period(*bounds)

    def test_infinite_bounds_allowed(self):
        assert Period(-math.inf, math.inf).contains(1e300)

    def test_contains_instant(self):
        p = Period(0.0, 10.0)
        assert p.contains(0.0)
        assert p.contains(10.0)
        assert p.contains(5.0)
        assert not p.contains(10.5)
        assert not p.contains(-0.5)

    def test_contains_period(self):
        assert Period(0, 10).contains_period(Period(2, 8))
        assert Period(0, 10).contains_period(Period(0, 10))
        assert not Period(0, 10).contains_period(Period(2, 12))

    def test_overlaps_symmetric(self):
        a, b = Period(0, 5), Period(4, 9)
        assert a.overlaps(b) and b.overlaps(a)
        c = Period(6, 9)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_touching_periods_overlap(self):
        assert Period(0, 5).overlaps(Period(5, 9))

    def test_intersection(self):
        assert Period(0, 5).intersection(Period(3, 9)) == Period(3, 5)
        assert Period(0, 5).intersection(Period(6, 9)) is None

    def test_union(self):
        assert Period(0, 5).union(Period(3, 9)) == Period(0, 9)
        assert Period(0, 2).union(Period(6, 9)) == Period(0, 9)

    def test_expand_and_clamp(self):
        p = Period(2, 4).expand(1.0)
        assert p == Period(1, 5)
        assert p.clamp(0.0) == 1.0
        assert p.clamp(10.0) == 5.0
        assert p.clamp(3.0) == 3.0

    def test_split_covers_whole_period(self):
        parts = Period(0, 10).split(4)
        assert len(parts) == 4
        assert parts[0].tmin == 0 and parts[-1].tmax == 10
        for left, right in zip(parts[:-1], parts[1:]):
            assert left.tmax == pytest.approx(right.tmin)

    def test_split_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Period(0, 10).split(0)


class TestPointST:
    def test_as_tuple(self):
        assert PointST(1, 2, 3).as_tuple() == (1, 2, 3)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PointST(1, 2, 3).x = 5  # type: ignore[misc]


class TestSegmentST:
    def test_rejects_backwards_time(self):
        with pytest.raises(ValueError):
            SegmentST(PointST(0, 0, 5), PointST(1, 1, 1))

    def test_point_at_interpolates(self):
        seg = SegmentST(PointST(0, 0, 0), PointST(10, 0, 10))
        mid = seg.point_at(5.0)
        assert mid.x == pytest.approx(5.0)
        assert mid.y == pytest.approx(0.0)

    def test_point_at_clamps(self):
        seg = SegmentST(PointST(0, 0, 0), PointST(10, 0, 10))
        assert seg.point_at(-5.0).x == 0.0
        assert seg.point_at(50.0).x == 10.0

    def test_zero_duration_segment(self):
        seg = SegmentST(PointST(1, 2, 3), PointST(4, 5, 3))
        assert seg.point_at(3.0) == seg.start

    def test_bbox_covers_endpoints(self):
        seg = SegmentST(PointST(5, -1, 0), PointST(-2, 7, 4))
        assert seg.bbox == BoxST(-2, -1, 0, 5, 7, 4)


class TestBoxST:
    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxST(1, 0, 0, 0, 1, 1)

    def test_volume_and_center(self):
        box = BoxST(0, 0, 0, 2, 3, 4)
        assert box.volume == 24.0
        assert box.center == PointST(1.0, 1.5, 2.0)

    def test_intersects(self):
        a = BoxST(0, 0, 0, 10, 10, 10)
        b = BoxST(5, 5, 5, 15, 15, 15)
        c = BoxST(11, 11, 11, 12, 12, 12)
        assert a.intersects(b) and b.intersects(a)
        assert not a.intersects(c)

    def test_union_is_commutative_and_covering(self):
        a = BoxST(0, 0, 0, 1, 1, 1)
        b = BoxST(5, 5, 5, 6, 6, 6)
        u = a.union(b)
        assert u == b.union(a)
        assert u == BoxST(0, 0, 0, 6, 6, 6)

    def test_intersection(self):
        a = BoxST(0, 0, 0, 10, 10, 10)
        b = BoxST(5, 5, 5, 15, 15, 15)
        inter = a.intersection(b)
        assert inter == BoxST(5, 5, 5, 10, 10, 10)
        assert a.intersection(BoxST(20, 20, 20, 21, 21, 21)) is None

    def test_enlargement(self):
        a = BoxST(0, 0, 0, 1, 1, 1)
        assert a.enlargement(BoxST(0, 0, 0, 1, 1, 1)) == 0.0
        assert a.enlargement(BoxST(0, 0, 0, 2, 1, 1)) == pytest.approx(1.0)

    def test_expand(self):
        box = BoxST(0, 0, 0, 1, 1, 1).expand(1.0, 2.0)
        assert box.as_tuple() == (-1, -1, -2, 2, 2, 3)

    def test_period_accessor(self):
        assert BoxST(0, 0, 2, 1, 1, 7).period == Period(2, 7)
