"""Unit tests for the MOD container."""

import pytest

from repro.hermes.mod import MOD
from repro.hermes.types import BoxST, Period
from tests.conftest import make_linear_trajectory


class TestModMutation:
    def test_add_and_len(self, small_mod):
        assert len(small_mod) == 4
        assert small_mod.total_points == 44

    def test_duplicate_key_rejected(self, small_mod):
        with pytest.raises(ValueError):
            small_mod.add(make_linear_trajectory("a", "0"))

    def test_remove(self, small_mod):
        removed = small_mod.remove(("z", "0"))
        assert removed.obj_id == "z"
        assert len(small_mod) == 3
        assert ("z", "0") not in small_mod


class TestModAccess:
    def test_get_and_contains(self, small_mod):
        assert small_mod.get(("a", "0")).obj_id == "a"
        assert ("a", "0") in small_mod
        assert ("nope", "0") not in small_mod
        with pytest.raises(KeyError):
            small_mod.get(("nope", "0"))

    def test_keys_and_object_ids(self, small_mod):
        assert len(small_mod.keys()) == 4
        assert small_mod.object_ids() == ["a", "b", "c", "z"]

    def test_iteration_order_is_insertion(self, small_mod):
        assert [t.obj_id for t in small_mod] == ["a", "b", "c", "z"]


class TestModAggregates:
    def test_period_and_bbox(self, small_mod):
        assert small_mod.period == Period(0.0, 100.0)
        assert small_mod.bbox.union(BoxST(0, 0, 0, 10, 80, 100)) == small_mod.bbox

    def test_empty_mod_aggregates_raise(self):
        empty = MOD()
        with pytest.raises(ValueError):
            _ = empty.period
        with pytest.raises(ValueError):
            _ = empty.bbox


class TestModQueries:
    def test_temporal_range_restricts_lifespans(self, small_mod):
        window = Period(25.0, 75.0)
        restricted = small_mod.temporal_range(window)
        assert len(restricted) == 4
        for traj in restricted:
            assert traj.period.tmin >= window.tmin - 1e-9
            assert traj.period.tmax <= window.tmax + 1e-9

    def test_temporal_range_outside_lifespan_is_empty(self, small_mod):
        assert len(small_mod.temporal_range(Period(500.0, 600.0))) == 0
