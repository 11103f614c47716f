"""Unit tests for the 1D temporal interval index."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hermes.types import Period
from repro.index.interval import IntervalIndex


class TestIntervalIndex:
    def test_empty(self):
        index: IntervalIndex[str] = IntervalIndex()
        assert len(index) == 0
        assert index.overlapping(Period(0, 100)) == []

    def test_insert_and_overlap(self):
        index: IntervalIndex[str] = IntervalIndex()
        index.insert(Period(0, 10), "a")
        index.insert(Period(5, 15), "b")
        index.insert(Period(20, 30), "c")
        hits = [v for _p, v in index.overlapping(Period(8, 12))]
        assert set(hits) == {"a", "b"}

    def test_touching_intervals_overlap(self):
        index: IntervalIndex[str] = IntervalIndex()
        index.insert(Period(0, 10), "a")
        assert [v for _p, v in index.overlapping(Period(10, 20))] == ["a"]

    def test_covering_instant(self):
        index: IntervalIndex[str] = IntervalIndex()
        index.insert(Period(0, 10), "a")
        index.insert(Period(5, 15), "b")
        assert {v for _p, v in index.overlapping(Period(7.0, 7.0))} == {"a", "b"}
        assert {v for _p, v in index.overlapping(Period(12.0, 12.0))} == {"b"}

    def test_values_sorted_by_start(self):
        index: IntervalIndex[int] = IntervalIndex()
        for start in [30, 10, 20, 0]:
            index.insert(Period(start, start + 5), start)
        assert [value for _period, value in index] == [0, 10, 20, 30]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_overlap_matches_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        index: IntervalIndex[int] = IntervalIndex()
        periods = []
        for i in range(int(rng.integers(1, 60))):
            lo = float(rng.uniform(0, 100))
            hi = lo + float(rng.uniform(0, 20))
            periods.append(Period(lo, hi))
            index.insert(periods[-1], i)
        q_lo = float(rng.uniform(0, 100))
        query = Period(q_lo, q_lo + float(rng.uniform(0, 30)))
        expected = {i for i, p in enumerate(periods) if p.overlaps(query)}
        assert {v for _p, v in index.overlapping(query)} == expected
