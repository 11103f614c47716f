"""Evaluation utilities: quality metrics, table rendering, the quality matrix."""

from repro.eval.metrics import (
    QualityReport,
    adjusted_rand_index,
    clustering_quality,
    normalized_mutual_information,
    point_level_labels,
)
from repro.eval.harness import format_table
from repro.eval.quality import check_floor, run_cell, run_quality_matrix

__all__ = [
    "QualityReport",
    "adjusted_rand_index",
    "clustering_quality",
    "normalized_mutual_information",
    "point_level_labels",
    "format_table",
    "check_floor",
    "run_cell",
    "run_quality_matrix",
]
