"""QuT-Clustering: Query-based Trajectory Clustering over the ReTraTree.

The ReTraTree (Representative Trajectory Tree) indexes a MOD for
sub-trajectory clustering purposes.  Its four levels (paper Section II.B):

1. temporal chunks of length ``tau``,
2. temporal sub-chunks of length ``delta`` inside each chunk,
3. cluster entries — a representative sub-trajectory plus the disk partition
   that archives its members — maintained incrementally per sub-chunk,
4. the disk partitions themselves (heap files, read whole — the paper's
   per-partition pg3D-Rtree is not built) plus a per-sub-chunk partition of
   not-yet-clustered/outlier sub-trajectories.

Given a temporal window ``W``, :class:`~repro.qut.query.QuTClustering`
retrieves and assembles the clusters and outliers that temporally intersect
``W`` without re-running the expensive clustering from scratch — the
"progressive, time-aware" analytics the paper demonstrates.
"""

from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree, ClusterEntry, SubChunk
from repro.qut.query import QuTClustering

__all__ = ["QuTParams", "ReTraTree", "ClusterEntry", "SubChunk", "QuTClustering"]
