"""The "range query + fresh index + cluster from scratch" alternative to QuT.

The paper's scenario 2 compares QuT-Clustering against the obvious
alternative a user without a ReTraTree would run for every time window W:

(i)   extract the relevant records with a temporal range query,
(ii)  create an R-tree index on the result of the query,
(iii) apply clustering (S2T-Clustering) on the extracted subset.

Here step (i) is :meth:`~repro.hermes.frame.MODFrame.slice_period` on the
dataset's frame, and step (ii) is the restricted frame's bounding-box and
lifespan tables, built with it: S2T's voting box test reads them and picks
exactly the pairs an R-tree over the margin-expanded boxes would return
(:mod:`repro.s2t.voting`), so no tree is built.  ``timings`` reports the
range query and then S2T's phases, so benchmark E7 can show both the total
gap and where the time goes.
"""

from __future__ import annotations

import time

from repro.hermes.frame import MODFrame, as_frame
from repro.hermes.mod import MOD
from repro.hermes.types import Period
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.result import ClusteringResult

__all__ = ["RangeThenCluster"]


class RangeThenCluster:
    """Temporal range query, then S2T from scratch on the restricted data.

    The range query is a columnar slice of the dataset's frame (the engine
    hands over its dataset; a MOD is snapshotted once here), row-for-row
    equivalent to ``MOD.temporal_range``.  The S2T fit reads the sliced
    frame as its dataset, so no phase re-snapshots the restricted data.
    """

    def __init__(self, dataset: MODFrame | MOD, s2t_params: S2TParams | None = None) -> None:
        self.frame = as_frame(dataset)
        self.s2t_params = s2t_params or S2TParams()

    def query(self, window: Period) -> ClusteringResult:
        """Cluster the sub-trajectories alive during ``window``."""
        # (i) temporal range query; (ii) the sliced frame's box tables.
        t0 = time.perf_counter()
        restricted = self.frame.slice_period(window)
        range_time = time.perf_counter() - t0

        if len(restricted) == 0:
            return ClusteringResult(
                method="range+s2t",
                clusters=[],
                outliers=[],
                params=self.s2t_params,
                timings={"range_query": range_time},
            )

        # (iii) apply S2T-Clustering to the restricted frame.
        result = S2TClustering(self.s2t_params).fit(restricted)
        result.method = "range+s2t"
        result.timings = {"range_query": range_time, **result.timings}
        result.extras["window"] = (window.tmin, window.tmax)
        return result
