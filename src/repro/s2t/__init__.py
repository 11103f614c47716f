"""S2T-Clustering: Sampling-based Sub-Trajectory Clustering.

The algorithm (Pelekis et al., EDBT 2017; demonstrated by the ICDE 2018
paper) has two phases:

1. **NaTS** (Neighbourhood-aware Trajectory Segmentation):

   * :mod:`repro.s2t.voting`       -- every trajectory segment is voted by the
     other trajectories according to how closely they co-move with it,
   * :mod:`repro.s2t.segmentation` -- each trajectory is split into
     sub-trajectories of homogeneous representativeness (voting level).

2. **SaCO** (Sampling, Clustering and Outlier detection):

   * :mod:`repro.s2t.sampling`     -- a greedy max-gain selection of highly
     voted, space-covering sub-trajectories as cluster representatives,
   * :mod:`repro.s2t.clustering`   -- every remaining sub-trajectory joins the
     closest representative within distance ``eps`` or becomes an outlier.

:class:`repro.s2t.pipeline.S2TClustering` chains the phases and reports
per-phase timings (benchmark E10).
"""

from repro.s2t.params import S2TParams
from repro.s2t.result import Cluster, ClusteringResult
from repro.s2t.voting import VotingProfile, compute_voting, kernel_support_radius
from repro.s2t.segmentation import segment_mod
from repro.s2t.sampling import select_representatives
from repro.s2t.clustering import greedy_clustering
from repro.s2t.pipeline import S2TClustering

__all__ = [
    "S2TParams",
    "Cluster",
    "ClusteringResult",
    "VotingProfile",
    "compute_voting",
    "kernel_support_radius",
    "segment_mod",
    "select_representatives",
    "greedy_clustering",
    "S2TClustering",
]
