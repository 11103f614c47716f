"""The full S2T-Clustering pipeline.

``S2TClustering(params).fit(mod)`` runs, in order:

1. voting            (NaTS phase 1),
2. segmentation      (NaTS phase 2),
3. sampling          (SaCO: representative selection),
4. greedy clustering (SaCO: cluster formation + outlier detection),

and returns a :class:`~repro.s2t.result.ClusteringResult` whose ``timings``
dictionary holds the per-phase wall-clock breakdown used by benchmark E10.

Voting is the voter-major sweep of :mod:`repro.s2t.voting`; sampling and
greedy clustering run on the batched columnar path (:mod:`repro.hermes.frame`).

The pipeline is frame-native end to end: the MOD's columnar
:class:`MODFrame` is built **once per fit** (or taken prebuilt from the
engine's frame catalog / a partition scheduler) and shared by the voting and
segmentation phases.  Segmentation gathers one frame of the
*sub-trajectories* (:func:`~repro.s2t.segmentation.segment_frame`), scoped to
the fit; the two SaCO phases share it, and sampling hands the distance row
it computed for each representative to greedy clustering, so a fit issues
one batched distance call per representative.  The ``segmentation`` timing
includes the sub-frame's gather and check.
For partition-parallel execution across a process pool see
:func:`repro.core.parallel.partitioned_s2t`.
"""

from __future__ import annotations

import time

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.s2t.clustering import cluster
from repro.s2t.params import S2TParams
from repro.s2t.result import ClusteringResult
from repro.s2t.sampling import sample
from repro.s2t.segmentation import segment_frame
from repro.s2t.voting import VotingProfile, compute_voting

__all__ = ["S2TClustering"]


class S2TClustering:
    """Sampling-based Sub-Trajectory Clustering.

    Parameters
    ----------
    params:
        Tuning knobs; ``None`` uses data-driven defaults.

    Examples
    --------
    >>> from repro.datagen import lane_scenario
    >>> mod, _truth = lane_scenario(n_trajectories=30, seed=1)
    >>> result = S2TClustering().fit(mod)
    >>> result.num_clusters >= 1
    True
    """

    def __init__(self, params: S2TParams | None = None) -> None:
        self.params = params or S2TParams()
        self.last_voting_profile: VotingProfile | None = None

    def fit(self, mod: MOD, frame: MODFrame | None = None) -> ClusteringResult:
        """Cluster the MOD's sub-trajectories.

        Parameters
        ----------
        mod:
            The Moving Object Database to analyse.
        frame:
            Optional prebuilt columnar snapshot of ``mod`` (the engine's
            frame catalog and the partition scheduler pass theirs here).
            When omitted, the frame is built once and shared by the voting
            and segmentation phases.
        """
        if len(mod) == 0:
            return ClusteringResult(method="s2t", clusters=[], outliers=[], params=self.params)
        if frame is None:
            frame = MODFrame.from_mod(mod)
        params = self.params.resolved(mod, frame)

        profile = compute_voting(mod, params, frame=frame)
        self.last_voting_profile = profile

        start = time.perf_counter()
        sub_frame, subtrajectories, masses = segment_frame(frame, profile, params)
        seg_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        picked, rows = sample(sub_frame, masses, params)
        representatives = [subtrajectories[i] for i in picked]
        sampling_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        result = cluster(subtrajectories, representatives, rows, params, sub_frame)
        clustering_elapsed = time.perf_counter() - start

        result.params = params
        result.timings = {
            "voting": profile.elapsed_s,
            "segmentation": seg_elapsed,
            "sampling": sampling_elapsed,
            "clustering": clustering_elapsed,
        }
        result.extras = {
            "num_subtrajectories": len(subtrajectories),
            "num_representatives": len(representatives),
            "voting_pairs_evaluated": profile.pairs_evaluated,
            "voting_pairs_pruned": profile.pairs_pruned,
        }
        return result
