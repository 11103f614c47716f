"""The "range query + fresh index + cluster from scratch" alternative to QuT.

The paper's scenario 2 compares QuT-Clustering against the obvious
alternative a user without a ReTraTree would run for every time window W:

(i)   extract the relevant records with a temporal range query,
(ii)  create an R-tree index on the result of the query,
(iii) apply clustering (S2T-Clustering) on the extracted subset.

This class packages those three steps and reports their individual costs, so
benchmark E7 can show both the total gap and where the time goes.
"""

from __future__ import annotations

import time

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.types import Period
from repro.index.rtree3d import RTree3D
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.result import ClusteringResult
from repro.s2t.voting import build_trajectory_index, kernel_support_radius

__all__ = ["RangeThenCluster"]


class RangeThenCluster:
    """Temporal range query, fresh 3D R-tree, then S2T from scratch.

    When the engine hands over its cached dataset frame, the range query
    runs as a columnar :meth:`~repro.hermes.frame.MODFrame.slice_period`
    (row-for-row equivalent to ``MOD.temporal_range``) and the sliced frame
    is threaded through the S2T phases, so no phase re-snapshots the
    restricted dataset.
    """

    def __init__(
        self,
        mod: MOD,
        s2t_params: S2TParams | None = None,
        frame: MODFrame | None = None,
    ) -> None:
        self.mod = mod
        self.s2t_params = s2t_params or S2TParams()
        self.frame = frame

    def query(self, window: Period) -> ClusteringResult:
        """Cluster the sub-trajectories alive during ``window``."""
        # (i) temporal range query.
        t0 = time.perf_counter()
        restricted_frame: MODFrame | None = None
        if self.frame is not None:
            restricted_frame = self.frame.slice_period(window)
            restricted = restricted_frame.to_mod(
                name=f"{self.mod.name}@[{window.tmin:.0f},{window.tmax:.0f}]"
            )
        else:
            restricted = self.mod.temporal_range(window)
        range_time = time.perf_counter() - t0

        if len(restricted) == 0:
            return ClusteringResult(
                method="range+s2t",
                clusters=[],
                outliers=[],
                params=self.s2t_params,
                timings={"range_query": range_time, "index_build": 0.0},
            )

        # (ii) build a fresh 3D R-tree on the query result.  The margin is
        # the kernel support radius the batched voting engine prunes at (its
        # 1e-8 dense-equivalence contract).
        t0 = time.perf_counter()
        params = self.s2t_params.resolved(restricted)
        sigma = params.sigma
        assert sigma is not None
        margin = kernel_support_radius(sigma, params.voting_kernel)
        index: RTree3D = build_trajectory_index(restricted, spatial_margin=margin)
        index_time = time.perf_counter() - t0

        # (iii) apply S2T-Clustering using that index.
        result = S2TClustering(params).fit(restricted, index=index, frame=restricted_frame)
        result.method = "range+s2t"
        result.timings = {
            "range_query": range_time,
            "index_build": index_time,
            **result.timings,
        }
        result.extras["window"] = (window.tmin, window.tmax)
        return result
