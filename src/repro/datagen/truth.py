"""Point-level ground truth for synthetic MODs.

A ground truth assigns to every trajectory a sequence of per-sample labels:
the flow/lane the object follows at that instant, or ``None`` when it moves
independently (noise / outlier behaviour).  Quality metrics compare these
labels against the per-sample cluster assignment induced by a clustering
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["GroundTruth"]


@dataclass
class GroundTruth:
    """Per-sample flow labels for each trajectory of a MOD."""

    labels: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)

    def set_labels(self, key: tuple[str, str], labels: np.ndarray) -> None:
        """Record the per-sample label array for trajectory ``key``."""
        self.labels[key] = np.asarray(labels, dtype=object)

    def labels_for(self, key: tuple[str, str]) -> np.ndarray:
        """Per-sample labels of a trajectory (``None`` entries mean noise)."""
        return self.labels[key]

    def flow_ids(self) -> list[str]:
        """Distinct non-noise flow labels present in the ground truth."""
        out: set[str] = set()
        for arr in self.labels.values():
            out.update(lbl for lbl in arr if lbl is not None)
        return sorted(out)
