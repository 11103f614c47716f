"""Spatiotemporal primitive types of the Hermes MOD engine.

Hermes@PostgreSQL models movement in a 3D space whose axes are ``x``, ``y``
(planar space) and ``t`` (time).  The primitives here mirror the engine's
datatypes:

* :class:`Period`    -- a closed time interval ``[tmin, tmax]``,
* :class:`PointST`   -- a spatiotemporal point ``(x, y, t)``,
* :class:`SegmentST` -- a 3D line segment between two spatiotemporal points,
* :class:`BoxST`     -- a 3D axis-aligned bounding box, the key type used by
  the pg3D-Rtree index.

All types are immutable value objects so they can be used safely as index
keys, dictionary keys and members of frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Period", "PointST", "SegmentST", "BoxST"]

_EPS = 1e-12


@dataclass(frozen=True, slots=True)
class Period:
    """A closed time interval ``[tmin, tmax]``.

    ``tmin`` may equal ``tmax`` (an instant).  Construction with
    ``tmin > tmax`` or a NaN bound raises :class:`ValueError`; infinite
    bounds are allowed (``(-inf, inf)`` is all of time).
    """

    tmin: float
    tmax: float

    def __post_init__(self) -> None:
        if not (self.tmin <= self.tmax):
            raise ValueError(
                f"Period requires tmin <= tmax, got [{self.tmin}, {self.tmax}]"
            )

    @property
    def duration(self) -> float:
        """Length of the interval."""
        return self.tmax - self.tmin

    def contains(self, t: float) -> bool:
        """Return ``True`` if instant ``t`` lies inside the interval."""
        return self.tmin - _EPS <= t <= self.tmax + _EPS

    def contains_period(self, other: "Period") -> bool:
        """Return ``True`` if ``other`` lies entirely inside this period."""
        return self.tmin - _EPS <= other.tmin and other.tmax <= self.tmax + _EPS

    def overlaps(self, other: "Period") -> bool:
        """Return ``True`` if the two intervals share at least one instant."""
        return self.tmin <= other.tmax + _EPS and other.tmin <= self.tmax + _EPS

    def intersection(self, other: "Period") -> "Period | None":
        """Intersection of the two periods, or ``None`` if disjoint."""
        lo = max(self.tmin, other.tmin)
        hi = min(self.tmax, other.tmax)
        if lo > hi:
            return None
        return Period(lo, hi)

    def union(self, other: "Period") -> "Period":
        """Smallest period covering both intervals."""
        return Period(min(self.tmin, other.tmin), max(self.tmax, other.tmax))

    def expand(self, amount: float) -> "Period":
        """Return a period enlarged by ``amount`` on both sides."""
        return Period(self.tmin - amount, self.tmax + amount)

    def clamp(self, t: float) -> float:
        """Clamp instant ``t`` into the interval."""
        return min(max(t, self.tmin), self.tmax)

    def split(self, n: int) -> list["Period"]:
        """Split into ``n`` equal-length consecutive periods."""
        if n <= 0:
            raise ValueError("n must be positive")
        step = self.duration / n
        out = []
        for i in range(n):
            lo = self.tmin + i * step
            hi = self.tmax if i == n - 1 else self.tmin + (i + 1) * step
            out.append(Period(lo, hi))
        return out


@dataclass(frozen=True, slots=True)
class PointST:
    """A spatiotemporal point ``(x, y, t)``."""

    x: float
    y: float
    t: float

    def as_tuple(self) -> tuple[float, float, float]:
        """Return ``(x, y, t)``."""
        return (self.x, self.y, self.t)


@dataclass(frozen=True, slots=True)
class SegmentST:
    """A 3D line segment between two spatiotemporal points.

    Segments are the unit of voting in S2T-Clustering: each segment of a
    trajectory accumulates votes from other trajectories moving nearby
    during the segment's time span.
    """

    start: PointST
    end: PointST

    def __post_init__(self) -> None:
        if self.end.t < self.start.t:
            raise ValueError("SegmentST requires start.t <= end.t")

    @property
    def period(self) -> Period:
        """Temporal extent of the segment."""
        return Period(self.start.t, self.end.t)

    @property
    def duration(self) -> float:
        """Temporal length of the segment."""
        return self.end.t - self.start.t

    @property
    def bbox(self) -> "BoxST":
        """3D minimum bounding box of the segment."""
        return BoxST(
            min(self.start.x, self.end.x),
            min(self.start.y, self.end.y),
            self.start.t,
            max(self.start.x, self.end.x),
            max(self.start.y, self.end.y),
            self.end.t,
        )

    def point_at(self, t: float) -> PointST:
        """Linearly interpolated position at instant ``t``.

        ``t`` is clamped to the segment's period, so the result is always a
        point on the segment.
        """
        if self.duration <= _EPS:
            return self.start
        t = self.period.clamp(t)
        frac = (t - self.start.t) / self.duration
        return PointST(
            self.start.x + frac * (self.end.x - self.start.x),
            self.start.y + frac * (self.end.y - self.start.y),
            t,
        )


@dataclass(frozen=True, slots=True)
class BoxST:
    """A 3D axis-aligned box ``[xmin, xmax] x [ymin, ymax] x [tmin, tmax]``.

    This is the key type of the pg3D-Rtree index: internal entries store the
    union of their children's boxes, and search descends into children whose
    boxes intersect the query box.
    """

    xmin: float
    ymin: float
    tmin: float
    xmax: float
    ymax: float
    tmax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax or self.tmin > self.tmax:
            raise ValueError(f"degenerate BoxST bounds: {self}")

    # -- geometry ----------------------------------------------------------

    @property
    def period(self) -> Period:
        """Temporal extent of the box."""
        return Period(self.tmin, self.tmax)

    @property
    def dx(self) -> float:
        return self.xmax - self.xmin

    @property
    def dy(self) -> float:
        return self.ymax - self.ymin

    @property
    def dt(self) -> float:
        return self.tmax - self.tmin

    @property
    def volume(self) -> float:
        """3D volume (0 for degenerate boxes)."""
        return self.dx * self.dy * self.dt

    @property
    def center(self) -> PointST:
        """Center of the box."""
        return PointST(
            (self.xmin + self.xmax) / 2.0,
            (self.ymin + self.ymax) / 2.0,
            (self.tmin + self.tmax) / 2.0,
        )

    def intersects(self, other: "BoxST") -> bool:
        """Return ``True`` if the two boxes share at least one point."""
        return (
            self.xmin <= other.xmax
            and other.xmin <= self.xmax
            and self.ymin <= other.ymax
            and other.ymin <= self.ymax
            and self.tmin <= other.tmax
            and other.tmin <= self.tmax
        )

    def union(self, other: "BoxST") -> "BoxST":
        """Smallest box covering both boxes."""
        return BoxST(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            min(self.tmin, other.tmin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
            max(self.tmax, other.tmax),
        )

    def intersection(self, other: "BoxST") -> "BoxST | None":
        """Intersection box, or ``None`` if the boxes are disjoint."""
        if not self.intersects(other):
            return None
        return BoxST(
            max(self.xmin, other.xmin),
            max(self.ymin, other.ymin),
            max(self.tmin, other.tmin),
            min(self.xmax, other.xmax),
            min(self.ymax, other.ymax),
            min(self.tmax, other.tmax),
        )

    def enlargement(self, other: "BoxST") -> float:
        """Volume increase needed to cover ``other`` (the R-tree's choose-leaf penalty)."""
        return self.union(other).volume - self.volume

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        """Return ``(xmin, ymin, tmin, xmax, ymax, tmax)``."""
        return (self.xmin, self.ymin, self.tmin, self.xmax, self.ymax, self.tmax)
