"""Parameter objects for S2T-Clustering.

Defaults are data-driven: thresholds expressed as a ``None`` are resolved
against the MOD's spatial extent when the pipeline runs, which is what lets
the same parameter object work across the aircraft, urban and maritime
scenarios without hand tuning (one of the paper's selling points over
TRACLUS/co-movement parameters).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD

__all__ = ["S2TParams"]


@dataclass(frozen=True)
class S2TParams:
    """Tuning knobs of the S2T pipeline.

    Parameters
    ----------
    sigma:
        Bandwidth of the Gaussian voting kernel (same unit as x/y).  ``None``
        resolves to 3 % of the spatial diagonal.
    voting_kernel:
        ``"gaussian"`` (default) or ``"triangular"`` — ablation E12.
    voting_strategy:
        Accepts ``"batched"`` only: voting has one engine, the sweep of
        :mod:`repro.s2t.voting`, and any other value is a
        :class:`ValueError`.  The field stays only because the e2e
        benchmark's tracer (``benchmarks/e2e/tracing.py``) still passes it;
        it goes with that tracer's rewrite.
    segmentation_method:
        ``"dp"`` for the optimal dynamic-programming segmentation or
        ``"greedy"`` for the linear-time heuristic — ablation E12.
    segmentation_penalty:
        Per-segment penalty of the DP objective, as a fraction of the total
        voting variance; larger values give fewer, longer sub-trajectories.
    min_segment_samples:
        Minimum number of samples per sub-trajectory.
    max_representatives:
        Upper bound on the sampling set size.  ``None`` lets the gain
        criterion decide.
    gain_threshold:
        Sampling stops when the next representative's gain falls below this
        fraction of the first representative's gain.
    coverage_radius:
        Distance within which a representative "covers" a sub-trajectory
        during sampling.  ``None`` resolves to ``2 * eps``.
    eps:
        Maximum distance at which a sub-trajectory joins a representative's
        cluster.  ``None`` resolves to 5 % of the spatial diagonal.
    min_cluster_support:
        Minimum members for a cluster to survive (the paper's ``γ``); smaller
        clusters are dissolved into outliers.
    temporal_tolerance:
        Extra temporal slack (the paper's ``t``) when matching sub-trajectories
        whose lifespans only partially overlap a representative's.
    n_jobs:
        Number of worker processes for partition-parallel S2T execution
        (:mod:`repro.core.parallel`).  ``1`` (default) runs the classic
        whole-MOD pipeline in-process; ``> 1`` splits the dataset into
        temporal partitions, fits each on a process pool and merges the
        per-partition results.

    A set ``sigma`` / ``eps`` / ``coverage_radius`` must be finite and
    positive and ``temporal_tolerance`` finite and non-negative; anything
    else raises :class:`ValueError` naming the field.
    """

    sigma: float | None = None
    voting_kernel: str = "gaussian"
    voting_strategy: str = "batched"
    segmentation_method: str = "dp"
    segmentation_penalty: float = 0.05
    min_segment_samples: int = 4
    max_representatives: int | None = None
    gain_threshold: float = 0.05
    coverage_radius: float | None = None
    eps: float | None = None
    min_cluster_support: int = 2
    temporal_tolerance: float = 0.0
    n_jobs: int = 1

    def resolved(self, dataset: MODFrame | MOD) -> "S2TParams":
        """Return a copy with all ``None`` thresholds resolved against ``dataset``.

        The spatial extent is the dataset's ``bbox``: a frame's is one
        vectorised min / max per column of its box tables, a MOD's one visit
        per trajectory; both give the same box, so the same thresholds.

        Raises :class:`ValueError` when the dataset's spatial extent or diagonal
        is not finite (coordinates near ``±float max``), whether or not
        ``sigma`` / ``eps`` are given: distances across such a MOD overflow,
        so S2T has no answer to give for it.  A dataset of zero extent is refused
        too unless ``sigma`` and ``eps`` are given, since their defaults
        would be zero.
        """
        bbox = dataset.bbox
        try:
            diag = ((bbox.dx) ** 2 + (bbox.dy) ** 2) ** 0.5
        except OverflowError:
            diag = math.inf
        if not math.isfinite(diag):
            raise ValueError(
                f"the dataset spans {bbox.dx!r} x {bbox.dy!r} in x/y: its "
                "spatial diagonal is not finite, so S2T cannot measure distances in it"
            )
        if diag == 0 and (self.sigma is None or self.eps is None):
            raise ValueError(
                "the dataset has zero x/y extent: sigma and eps default to a "
                "fraction of its spatial diagonal, so give them explicitly"
            )
        sigma = self.sigma if self.sigma is not None else 0.03 * diag
        eps = self.eps if self.eps is not None else 0.05 * diag
        coverage = self.coverage_radius if self.coverage_radius is not None else 2.0 * eps
        return replace(self, sigma=sigma, eps=eps, coverage_radius=coverage)

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the storage-catalog manifest)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "S2TParams":
        """Inverse of :meth:`to_dict`; an unknown key is a ``ValueError``."""
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown S2T parameter(s): {', '.join(unknown)}")
        return cls(**data)

    def __post_init__(self) -> None:
        if self.voting_kernel not in ("gaussian", "triangular"):
            raise ValueError(f"unknown voting kernel {self.voting_kernel!r}")
        if self.voting_strategy != "batched":
            raise ValueError(
                f"unknown voting strategy {self.voting_strategy!r}; voting has one "
                "engine, 'batched' (dense voting is now the test oracle in "
                "tests/s2t/oracles.py)"
            )
        if self.segmentation_method not in ("dp", "greedy"):
            raise ValueError(f"unknown segmentation method {self.segmentation_method!r}")
        if self.min_segment_samples < 2:
            raise ValueError("min_segment_samples must be at least 2")
        if not (0.0 <= self.gain_threshold <= 1.0):
            raise ValueError("gain_threshold must be in [0, 1]")
        if self.min_cluster_support < 1:
            raise ValueError("min_cluster_support must be at least 1")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")
        for name in ("sigma", "eps", "coverage_radius"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.temporal_tolerance) and self.temporal_tolerance >= 0):
            raise ValueError(
                f"temporal_tolerance must be finite and non-negative, got {self.temporal_tolerance!r}"
            )
