"""Hermes MOD engine substrate.

This package plays the role of the Hermes@PostgreSQL datatypes and the
operands S2T and QuT use: spatiotemporal primitives
(:mod:`repro.hermes.types`), the trajectory model
(:mod:`repro.hermes.trajectory`), temporal synchronisation
(:mod:`repro.hermes.interpolation`), the time-aware and Hausdorff distances
(:mod:`repro.hermes.distances`), the in-memory Moving Object Database
container (:mod:`repro.hermes.mod`), its columnar form
(:mod:`repro.hermes.frame`) and CSV import/export (:mod:`repro.hermes.io`).
Hermes's wider trajectory algebra (speed, heading, stops, simplification,
DTW, LCSS, ...) is not reproduced: neither operator calls it.
"""

from repro.hermes.types import Period, PointST, SegmentST, BoxST
from repro.hermes.trajectory import Trajectory, SubTrajectory
from repro.hermes.mod import MOD
from repro.hermes.frame import MODFrame
from repro.hermes.io import read_csv, write_csv

__all__ = [
    "Period",
    "PointST",
    "SegmentST",
    "BoxST",
    "Trajectory",
    "SubTrajectory",
    "MOD",
    "MODFrame",
    "read_csv",
    "write_csv",
]
