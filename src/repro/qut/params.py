"""Parameters of the ReTraTree / QuT-Clustering.

The names follow the paper's SQL signature ``QUT(D, Wi, We, tau, delta, t, d,
gamma)``:

* ``tau``   -- level-1 temporal chunk length,
* ``delta`` -- level-2 sub-chunk length (must divide ``tau`` reasonably),
* ``t``     -- temporal tolerance when matching sub-trajectories against
  representatives whose lifespans only partially overlap,
* ``d``     -- spatial distance threshold for joining a representative's
  cluster,
* ``gamma`` -- minimum members for a cluster to be reported.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.s2t.params import S2TParams

__all__ = ["QuTParams"]


@dataclass(frozen=True)
class QuTParams:
    """ReTraTree construction and QuT query parameters.

    ``None`` values are data driven: ``tau`` defaults to a quarter of the
    MOD's lifespan, ``delta`` to ``tau / 4`` and ``d`` to 5 % of the spatial
    diagonal.

    A set ``tau`` / ``delta`` / ``distance_threshold`` must be finite and
    positive and ``temporal_tolerance`` finite and non-negative; anything
    else raises :class:`ValueError` naming the field.
    """

    tau: float | None = None
    delta: float | None = None
    temporal_tolerance: float = 0.0
    distance_threshold: float | None = None
    gamma: int = 2
    overflow_threshold: int = 32
    s2t: S2TParams = S2TParams()

    def resolved(self, dataset: MODFrame | MOD | Trajectory) -> "QuTParams":
        """Return a copy with data-driven defaults resolved against ``dataset``.

        The extent is the dataset's ``bbox`` (a frame, a MOD or one
        trajectory: each has one).
        Raises :class:`ValueError` when its spatial extent or diagonal is not
        finite (coordinates near ``±float max``), whether or not
        ``distance_threshold`` is given: distances across such a dataset
        overflow, so neither the tree nor its overflow S2T runs can place a
        piece in it.  A dataset of zero extent is refused too unless
        ``distance_threshold`` is given, since its default would be zero.
        """
        bbox = dataset.bbox
        period = bbox.period
        try:
            diag = (bbox.dx**2 + bbox.dy**2) ** 0.5
        except OverflowError:
            diag = math.inf
        if not math.isfinite(diag):
            raise ValueError(
                f"the dataset spans {bbox.dx!r} x {bbox.dy!r} in x/y: its "
                "spatial diagonal is not finite, so QuT cannot measure distances in it"
            )
        if diag == 0 and self.distance_threshold is None:
            raise ValueError(
                "the dataset has zero x/y extent: distance_threshold defaults "
                "to a fraction of its spatial diagonal, so give it explicitly"
            )
        tau = self.tau if self.tau is not None else max(period.duration / 4.0, 1e-9)
        delta = self.delta if self.delta is not None else tau / 4.0
        d = self.distance_threshold if self.distance_threshold is not None else 0.05 * diag
        # The S2T runs triggered by partition overflows operate on *small*
        # pending sets whose spatial extent says little about how far apart
        # co-moving objects are; tie the voting bandwidth and the cluster
        # radius to the QuT distance threshold instead so that overflow
        # clustering and query-time assignment agree on what "close" means.
        s2t = replace(
            self.s2t,
            sigma=self.s2t.sigma if self.s2t.sigma is not None else d / 2.0,
            eps=self.s2t.eps if self.s2t.eps is not None else d,
            min_cluster_support=self.gamma,
            temporal_tolerance=self.temporal_tolerance,
        )
        return replace(self, tau=tau, delta=delta, distance_threshold=d, s2t=s2t)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (used by the storage-catalog manifest)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QuTParams":
        """Inverse of :meth:`to_dict` (the nested ``s2t`` dict is rebuilt)."""
        data = dict(data)
        s2t = data.pop("s2t", None)
        return cls(s2t=S2TParams.from_dict(s2t) if s2t is not None else S2TParams(), **data)

    def __post_init__(self) -> None:
        for name in ("tau", "delta", "distance_threshold"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.gamma < 1:
            raise ValueError("gamma must be at least 1")
        if self.overflow_threshold < 2:
            raise ValueError("overflow_threshold must be at least 2")
        if not (math.isfinite(self.temporal_tolerance) and self.temporal_tolerance >= 0):
            raise ValueError(
                f"temporal_tolerance must be finite and non-negative, got {self.temporal_tolerance!r}"
            )
