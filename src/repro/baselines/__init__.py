"""Baselines the paper demonstrates S2T/QuT against.

* :mod:`repro.baselines.traclus`            -- TRACLUS (Lee et al., SIGMOD
  2007): MDL partitioning + density-based grouping of line segments; spatial
  only, which is exactly the limitation the paper calls out.
* :mod:`repro.baselines.toptics`            -- T-OPTICS (Nanni & Pedreschi,
  JIIS 2006): OPTICS over whole trajectories with a time-aware distance.
* :mod:`repro.baselines.convoy`             -- Convoy discovery (Jeung et
  al., VLDB 2008): density-connected groups persisting over consecutive
  time snapshots.
* :mod:`repro.baselines.range_then_cluster` -- the paper's scenario-2
  alternative to QuT: temporal range query, the slice's box tables in place
  of a fresh 3D R-tree, then S2T-Clustering from scratch.
"""

from repro.baselines.traclus import TraclusParams, TraclusClustering
from repro.baselines.toptics import TOpticsParams, TOpticsClustering
from repro.baselines.convoy import ConvoyParams, ConvoyDiscovery
from repro.baselines.range_then_cluster import RangeThenCluster

__all__ = [
    "TraclusParams",
    "TraclusClustering",
    "TOpticsParams",
    "TOpticsClustering",
    "ConvoyParams",
    "ConvoyDiscovery",
    "RangeThenCluster",
]
