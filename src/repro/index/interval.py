"""A 1D temporal interval index.

Answers "which entries overlap period W?" without scanning everything.  It
is a sorted-by-start list with binary search on the query's upper bound.
The ReTraTree's temporal levels do not use it (they are scanned); the e2e
benchmark's tracer times it as ``index.interval_query_us``.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from typing import Generic, TypeVar

from repro.hermes.types import Period

__all__ = ["IntervalIndex"]

V = TypeVar("V")


class IntervalIndex(Generic[V]):
    """Maps time periods to values and answers overlap queries."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._items: list[tuple[Period, V]] = []

    @classmethod
    def bulk_load(cls, items: list[tuple[Period, V]]) -> "IntervalIndex[V]":
        """Build an index from many entries at once.

        A single ``O(n log n)`` sort instead of ``n`` sorted insertions.
        """
        index: IntervalIndex[V] = cls()
        ordered = sorted(items, key=lambda item: item[0].tmin)
        index._items = ordered
        index._starts = [period.tmin for period, _value in ordered]
        return index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[tuple[Period, V]]:
        return iter(self._items)

    def insert(self, period: Period, value: V) -> None:
        """Insert a (period, value) pair, keeping entries sorted by start."""
        idx = bisect.bisect_right(self._starts, period.tmin)
        self._starts.insert(idx, period.tmin)
        self._items.insert(idx, (period, value))

    def overlapping(self, query: Period) -> list[tuple[Period, V]]:
        """All entries whose period overlaps ``query``.

        Entries are sorted by start; entries starting after ``query.tmax``
        cannot overlap, so the scan stops at the bisection point.
        """
        hi = bisect.bisect_right(self._starts, query.tmax)
        return [
            (period, value)
            for period, value in self._items[:hi]
            if period.tmax >= query.tmin
        ]
