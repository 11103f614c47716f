"""Clustering quality metrics on sub-trajectory labelings.

Because both the ground truth (:class:`~repro.datagen.truth.GroundTruth`) and
every clustering result can be projected to *per-sample* labels, all methods
— S2T, QuT, TRACLUS, T-OPTICS, Convoys — are compared on the same footing:

* **ARI**: adjusted Rand index between the cluster labels and the planted
  flow labels, over the samples that both sides label,
* **joint ARI**: the same index over *every* flow sample, each unclustered
  one counted as a singleton cluster of its own — so a clustering cannot
  raise it by leaving the samples it would mislabel unclustered, as it can
  raise the ARI (whose pairs are only the clustered samples),
* **NMI**: normalized mutual information over the same paired samples
  (arithmetic-mean normalisation),
* **purity**: fraction of clustered samples whose cluster's majority flow
  matches their own flow,
* **coverage**: fraction of flow (non-noise) samples that end up in some
  cluster,
* **noise precision / recall / F1**: how well outlier detection recovers the
  planted noise samples.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.datagen.truth import GroundTruth
from repro.s2t.result import ClusteringResult

__all__ = [
    "QualityReport",
    "point_level_labels",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "clustering_quality",
]


@dataclass(frozen=True)
class QualityReport:
    """Summary of a clustering's agreement with the planted ground truth."""

    ari: float
    purity: float
    coverage: float
    noise_precision: float
    noise_recall: float
    labelled_samples: int
    nmi: float = 0.0
    joint_ari: float = 0.0

    @property
    def noise_f1(self) -> float:
        p, r = self.noise_precision, self.noise_recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "ari": round(self.ari, 4),
            "joint_ari": round(self.joint_ari, 4),
            "nmi": round(self.nmi, 4),
            "purity": round(self.purity, 4),
            "coverage": round(self.coverage, 4),
            "noise_precision": round(self.noise_precision, 4),
            "noise_recall": round(self.noise_recall, 4),
            "noise_f1": round(self.noise_f1, 4),
            "labelled_samples": self.labelled_samples,
        }


def point_level_labels(result: ClusteringResult) -> dict[tuple[tuple[str, str], int], int | None]:
    """Flatten a clustering result to ``{(traj_key, sample_idx): cluster_id or None}``."""
    flat: dict[tuple[tuple[str, str], int], int | None] = {}
    for traj_key, per_sample in result.point_assignments().items():
        for idx, cluster_id in per_sample.items():
            flat[(traj_key, idx)] = cluster_id
    return flat


def adjusted_rand_index(labels_a: list[object], labels_b: list[object]) -> float:
    """Adjusted Rand index between two labelings of the same items."""
    if len(labels_a) != len(labels_b):
        raise ValueError("labelings must have the same length")
    n = len(labels_a)
    if n == 0:
        return 0.0

    contingency: dict[tuple[object, object], int] = defaultdict(int)
    count_a: Counter = Counter()
    count_b: Counter = Counter()
    for a, b in zip(labels_a, labels_b):
        contingency[(a, b)] += 1
        count_a[a] += 1
        count_b[b] += 1

    def comb2(x: int) -> float:
        return x * (x - 1) / 2.0

    sum_comb_cells = sum(comb2(v) for v in contingency.values())
    sum_comb_a = sum(comb2(v) for v in count_a.values())
    sum_comb_b = sum(comb2(v) for v in count_b.values())
    total_comb = comb2(n)
    expected = sum_comb_a * sum_comb_b / total_comb if total_comb > 0 else 0.0
    max_index = (sum_comb_a + sum_comb_b) / 2.0
    denom = max_index - expected
    if math.isclose(denom, 0.0):
        return 1.0 if math.isclose(sum_comb_cells, expected) else 0.0
    return (sum_comb_cells - expected) / denom


def normalized_mutual_information(labels_a: list[object], labels_b: list[object]) -> float:
    """Normalized mutual information between two labelings of the same items.

    Uses the arithmetic-mean normalisation ``2 * I(A; B) / (H(A) + H(B))``
    (natural logarithms), which is 1.0 for identical partitions and 0.0 for
    independent ones.  Two degenerate single-cluster labelings (both
    entropies zero) count as perfect agreement when they are equal.
    """
    if len(labels_a) != len(labels_b):
        raise ValueError("labelings must have the same length")
    n = len(labels_a)
    if n == 0:
        return 0.0

    contingency: dict[tuple[object, object], int] = defaultdict(int)
    count_a: Counter = Counter()
    count_b: Counter = Counter()
    for a, b in zip(labels_a, labels_b):
        contingency[(a, b)] += 1
        count_a[a] += 1
        count_b[b] += 1

    def entropy(counts: Counter) -> float:
        return -sum((c / n) * math.log(c / n) for c in counts.values() if c > 0)

    h_a, h_b = entropy(count_a), entropy(count_b)
    mi = 0.0
    for (a, b), c in contingency.items():
        p_ab = c / n
        p_a = count_a[a] / n
        p_b = count_b[b] / n
        mi += p_ab * math.log(p_ab / (p_a * p_b))
    if h_a + h_b <= 0.0:
        # Both sides are a single cluster: identical partitions by construction.
        return 1.0
    return max(0.0, 2.0 * mi / (h_a + h_b))


def clustering_quality(result: ClusteringResult, truth: GroundTruth) -> QualityReport:
    """Compare a clustering result against the planted ground truth."""
    assignments = point_level_labels(result)

    paired_truth: list[object] = []
    paired_pred: list[object] = []
    flow_truth: list[object] = []
    flow_pred: list[object] = []
    flow_samples = 0
    flow_samples_clustered = 0
    noise_true = 0
    noise_predicted = 0
    noise_correct = 0

    for traj_key, labels in truth.labels.items():
        for idx, flow in enumerate(labels):
            pred = assignments.get((traj_key, idx), None)
            predicted_noise = pred is None
            if flow is None:
                noise_true += 1
                if predicted_noise:
                    noise_correct += 1
            else:
                flow_samples += 1
                if not predicted_noise:
                    flow_samples_clustered += 1
                flow_truth.append(flow)
                # An unclustered sample is a singleton: a label no other sample has.
                flow_pred.append(("unclustered", traj_key, idx) if predicted_noise else pred)
            if predicted_noise:
                noise_predicted += 1
            # ARI/purity consider only samples labelled on both sides.
            if flow is not None and not predicted_noise:
                paired_truth.append(flow)
                paired_pred.append(pred)

    ari = adjusted_rand_index(paired_truth, paired_pred) if paired_truth else 0.0
    joint_ari = adjusted_rand_index(flow_truth, flow_pred)
    nmi = normalized_mutual_information(paired_truth, paired_pred) if paired_truth else 0.0

    # Purity: majority flow per predicted cluster.
    per_cluster: dict[object, Counter] = defaultdict(Counter)
    for flow, pred in zip(paired_truth, paired_pred):
        per_cluster[pred][flow] += 1
    pure = sum(counter.most_common(1)[0][1] for counter in per_cluster.values())
    purity = pure / len(paired_truth) if paired_truth else 0.0

    coverage = flow_samples_clustered / flow_samples if flow_samples else 0.0
    noise_precision = noise_correct / noise_predicted if noise_predicted else 0.0
    noise_recall = noise_correct / noise_true if noise_true else 0.0

    return QualityReport(
        ari=ari,
        joint_ari=joint_ari,
        nmi=nmi,
        purity=purity,
        coverage=coverage,
        noise_precision=noise_precision,
        noise_recall=noise_recall,
        labelled_samples=len(paired_truth),
    )
