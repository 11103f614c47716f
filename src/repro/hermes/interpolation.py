"""Temporal alignment utilities.

The time-aware distance needs two trajectories expressed on a *common* time
grid.  This module provides that synchronisation.
"""

from __future__ import annotations

import numpy as np

from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period

__all__ = [
    "common_period",
    "common_time_grid",
    "synchronize",
]


def common_period(a: Trajectory, b: Trajectory) -> Period | None:
    """Temporal intersection of two trajectories, or ``None`` if disjoint."""
    return a.period.intersection(b.period)


def common_time_grid(
    period: Period, resolution: float | None = None, max_samples: int = 256
) -> np.ndarray:
    """Build an evenly spaced time grid covering ``period``.

    Parameters
    ----------
    period:
        The time interval to cover.
    resolution:
        Desired spacing between grid instants.  When ``None``, the grid has
        ``max_samples`` instants.
    max_samples:
        Upper bound on the number of instants (keeps the voting phase cheap
        for very long common periods).
    """
    if period.duration <= 0:
        return np.asarray([period.tmin], dtype=float)
    if resolution is None or resolution <= 0:
        n = max_samples
    else:
        n = int(np.ceil(period.duration / resolution)) + 1
        n = min(max(n, 2), max_samples)
    return np.linspace(period.tmin, period.tmax, n)


def synchronize(
    a: Trajectory,
    b: Trajectory,
    resolution: float | None = None,
    max_samples: int = 256,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Sample both trajectories on a shared grid over their common period.

    Returns ``(ts, pos_a, pos_b)`` where ``pos_*`` are ``(len(ts), 2)``
    arrays, or ``None`` when the trajectories do not overlap in time.
    """
    period = common_period(a, b)
    if period is None or period.duration <= 0:
        return None
    ts = common_time_grid(period, resolution, max_samples)
    return ts, a.positions_at(ts), b.positions_at(ts)

