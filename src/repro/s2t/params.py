"""Parameter objects for S2T-Clustering.

Defaults are data-driven: thresholds expressed as a ``None`` are resolved
against the MOD's spatial extent when the pipeline runs, which is what lets
the same parameter object work across the aircraft, urban and maritime
scenarios without hand tuning (one of the paper's selling points over
TRACLUS/co-movement parameters).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro.hermes.mod import MOD

__all__ = ["S2TParams", "VOTING_STRATEGIES"]

#: The reference pair loop and the engine that is pinned against it.
VOTING_STRATEGIES: tuple[str, ...] = ("dense", "batched")


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
        How the voting phase executes (see :mod:`repro.s2t.voting`):

        * ``"dense"`` — all-pairs Python loop, the exact reference;
        * ``"batched"`` (default) — the columnar
          :class:`~repro.hermes.frame.MODFrame` engine: R-tree plus
          sweep-line temporal prefilter, one vectorised interpolation pass
          per target; matches ``"dense"`` within ``1e-8``.
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
    voting_samples:
        Number of time samples per trajectory pair when computing synchronous
        distances for voting.
    n_jobs:
        Number of worker processes for partition-parallel S2T execution
        (:mod:`repro.core.parallel`).  ``1`` (default) runs the classic
        whole-MOD pipeline in-process; ``> 1`` splits the dataset into
        temporal partitions, fits each on a process pool and merges the
        per-partition results.
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
    voting_samples: int = 64
    n_jobs: int = 1

    def resolved(self, mod: MOD) -> "S2TParams":
        """Return a copy with all ``None`` thresholds resolved against ``mod``."""
        bbox = mod.bbox
        diag = ((bbox.dx) ** 2 + (bbox.dy) ** 2) ** 0.5
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
        if self.voting_strategy not in VOTING_STRATEGIES:
            raise ValueError(
                f"unknown voting strategy {self.voting_strategy!r}; "
                f"available: {', '.join(VOTING_STRATEGIES)}"
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
