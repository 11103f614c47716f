"""The Sampling step of SaCO.

The sampling set S should contain sub-trajectories that are (a) highly voted
— many objects co-move with them — and (b) spread out, so that together they
cover the 3D space occupied by the dataset.  The greedy max-gain selection
below implements this trade-off:

``gain(s) = voting_mass(s) * (1 - coverage(s | already selected))``

where coverage is the Gaussian similarity of ``s`` to its closest selected
representative under the time-aware trajectory distance.  Selection stops
when the relative gain drops below ``params.gain_threshold`` or the optional
``max_representatives`` budget is exhausted.

The candidates are one columnar :class:`~repro.hermes.frame.MODFrame` (row
``i`` = candidate ``i``; rows are addressed by position).  Every newly
selected representative then discounts *all* candidates in one
:func:`spatiotemporal_distance_batch` call and one vectorised gain update.
:func:`sample` keeps each representative's distance row;
:meth:`S2TClustering.fit <repro.s2t.pipeline.S2TClustering.fit>` passes the
sub-trajectory frame segmentation gathered and hands the rows on to
:func:`~repro.s2t.clustering.cluster`, so a fit computes each row once.
:func:`select_representatives` is the same selection for a list of
sub-trajectories and a mass map, building the frame when none is given.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.hermes.distances import spatiotemporal_distance_batch
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory
from repro.s2t.params import S2TParams

__all__ = ["sample", "select_representatives"]


def select_representatives(
    subtrajectories: list[SubTrajectory],
    voting_mass: dict[tuple[str, str, int, int], float],
    params: S2TParams,
) -> tuple[list[SubTrajectory], float]:
    """Greedy max-gain selection of the sampling set.

    This is :func:`sample` over the frame of ``subtrajectories`` (row ``i``
    = ``subtrajectories[i].traj``), with the masses looked up by
    sub-trajectory key.

    Returns ``(representatives, elapsed_seconds)``.
    """
    start = time.perf_counter()
    if not subtrajectories:
        return [], time.perf_counter() - start
    frame = MODFrame.from_trajectories(sub.traj for sub in subtrajectories)
    masses = np.array(
        [voting_mass.get(sub.key, 0.0) for sub in subtrajectories], dtype=float
    )
    picked, _rows = sample(frame, masses, params)
    return [subtrajectories[i] for i in picked], time.perf_counter() - start


def sample(
    frame: MODFrame, masses: np.ndarray, params: S2TParams
) -> tuple[list[int], list[np.ndarray]]:
    """Greedy max-gain selection over the candidate frame (module docstring).

    ``masses[i]`` is the voting mass of candidate ``i`` = row ``i`` of
    ``frame``.  Returns the selected rows in selection order and, for each,
    its distance row to every candidate — the rows
    :func:`~repro.s2t.clustering.cluster` assigns with.
    """
    radius = params.coverage_radius
    assert radius is not None, "params must be resolved before sampling"

    # Remaining gain of each candidate; updated as representatives are chosen.
    # Selected candidates drop to -inf and stay there (minimum keeps -inf).
    gains = masses.copy()
    picked: list[int] = []
    rows: list[np.ndarray] = []

    max_reps = params.max_representatives or len(masses)
    first_gain: float | None = None
    two_r_sq = 2.0 * radius * radius

    while len(picked) < max_reps:
        best_idx = int(np.argmax(gains))
        best_gain = float(gains[best_idx])
        if best_gain <= 0:
            break
        if first_gain is None:
            first_gain = best_gain
        elif best_gain < params.gain_threshold * first_gain:
            break
        picked.append(best_idx)
        gains[best_idx] = -math.inf
        # Discount the gain of every candidate covered by the new
        # representative: coverage is 1 on top of it, 0 far away (exp(-inf)
        # for candidates sharing no lifespan with it).
        dists = spatiotemporal_distance_batch(
            frame, frame.trajectory_of(best_idx), max_samples=32
        )
        rows.append(dists)
        coverage = np.exp(-(dists * dists) / two_r_sq)
        np.minimum(gains, masses * (1.0 - coverage), out=gains)

    return picked, rows
