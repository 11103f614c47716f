"""Index structures.

* :mod:`repro.index.rtree3d`  -- the pg3D-Rtree: a 3D R-tree over
  :class:`~repro.hermes.types.BoxST` keys (quadratic split, volume-enlargement
  choose-leaf) with STR bulk loading.  No ``src/`` path probes it: QuT reads
  each touched partition whole, so the ReTraTree builds none (see
  ``docs/architecture.md``); the index benchmarks and the e2e tracer time it.
* :mod:`repro.index.interval` -- a 1D interval index over periods.  Nothing
  in ``src/`` queries it; the e2e benchmark's tracer still times it.  The
  ReTraTree's temporal levels are scanned
  (:meth:`~repro.qut.retratree.ReTraTree.subchunks_overlapping`).
"""

from repro.index.rtree3d import RTree3D, str_bulk_load
from repro.index.interval import IntervalIndex

__all__ = ["RTree3D", "str_bulk_load", "IntervalIndex"]
