"""The full S2T-Clustering pipeline.

``S2TClustering(params).fit(mod)`` runs, in order:

1. voting            (NaTS phase 1),
2. segmentation      (NaTS phase 2),
3. sampling          (SaCO: representative selection),
4. greedy clustering (SaCO: cluster formation + outlier detection),

and returns a :class:`~repro.s2t.result.ClusteringResult` whose ``timings``
dictionary holds the per-phase wall-clock breakdown used by benchmark E10.

The voting phase honours ``S2TParams.voting_strategy`` (``"dense"`` or
``"batched"``, default batched — see :mod:`repro.s2t.voting`), reported in
``result.extras["voting_strategy"]``.  Sampling and greedy clustering always
run on the batched columnar path (:mod:`repro.hermes.frame`).

The pipeline is frame-native end to end: the MOD's columnar
:class:`MODFrame` is built **once per fit** (or taken prebuilt from the
engine's frame catalog / a partition scheduler) and shared by the voting and
segmentation phases; after segmentation one frame of the *sub-trajectories*
is built, scoped to the fit, and shared by the two SaCO phases (sampling and
greedy clustering), each of which issues one batched distance call per
representative against it.
For partition-parallel execution across a process pool see
:func:`repro.core.parallel.partitioned_s2t`.
"""

from __future__ import annotations

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.index.rtree3d import RTree3D
from repro.s2t.clustering import greedy_clustering
from repro.s2t.params import S2TParams
from repro.s2t.result import ClusteringResult
from repro.s2t.sampling import select_representatives
from repro.s2t.segmentation import segment_mod
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

    def fit(
        self,
        mod: MOD,
        index: RTree3D[tuple[str, str]] | None = None,
        frame: MODFrame | None = None,
    ) -> ClusteringResult:
        """Cluster the MOD's sub-trajectories.

        Parameters
        ----------
        mod:
            The Moving Object Database to analyse.
        index:
            Optional pre-built trajectory R-tree reused for voting (the
            ReTraTree passes the partition-local index here).
        frame:
            Optional prebuilt columnar snapshot of ``mod`` (the engine's
            frame catalog and the partition scheduler pass theirs here).
            When omitted, the frame is built once and shared by the voting
            and segmentation phases.
        """
        if len(mod) == 0:
            return ClusteringResult(method="s2t", clusters=[], outliers=[], params=self.params)
        params = self.params.resolved(mod)
        if frame is None:
            frame = MODFrame.from_mod(mod)

        profile = compute_voting(mod, params, index=index, frame=frame)
        self.last_voting_profile = profile

        subtrajectories, voting_mass, seg_elapsed = segment_mod(
            mod, profile, params, frame=frame
        )
        # SaCO runs on one frame of the sub-trajectories (row i = candidate
        # i).  Like the dataset frame above, its build (a few ms) is outside
        # the four phase timings.
        sub_frame = MODFrame.from_trajectories(sub.traj for sub in subtrajectories)
        representatives, sampling_elapsed = select_representatives(
            subtrajectories, voting_mass, params, frame=sub_frame
        )
        result, clustering_elapsed = greedy_clustering(
            subtrajectories, representatives, params, frame=sub_frame
        )

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
            "voting_strategy": profile.strategy,
            "voting_pairs_evaluated": profile.pairs_evaluated,
            "voting_pairs_pruned": profile.pairs_pruned,
        }
        return result
