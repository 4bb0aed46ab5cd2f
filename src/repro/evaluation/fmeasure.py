"""External cluster validity: Precision, Recall and overall F-measure.

The paper (Sec. 5.3) scores a clustering ``C = {C_1..C_K}`` against a
reference classification ``Gamma = {Gamma_1..Gamma_H}`` of the transaction
set ``S``::

    P_ij = |C_j ∩ Gamma_i| / |C_j|
    R_ij = |C_j ∩ Gamma_i| / |Gamma_i|
    F_ij = 2 P_ij R_ij / (P_ij + R_ij)

    F(C, Gamma) = (1/|S|) * sum_i |Gamma_i| * max_j F_ij

Higher is better; F lies in [0, 1].  Transactions assigned to the trash
cluster still count in ``|S|`` (they simply cannot contribute to any
``C_j ∩ Gamma_i``), so emptying clusters into the trash is penalised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass(frozen=True)
class FMeasureBreakdown:
    """Per-class detail of the overall F-measure computation."""

    class_label: str
    class_size: int
    best_cluster: int
    precision: float
    recall: float
    f_score: float


def pairwise_f(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f_measure_breakdown(
    clusters: Sequence[Sequence[str]],
    reference: Mapping[str, str],
    universe_size: Optional[int] = None,
) -> List[FMeasureBreakdown]:
    """Return, for every reference class, its best-matching cluster and scores.

    Parameters
    ----------
    clusters:
        The output partition as lists of transaction identifiers (trash
        excluded -- see :func:`overall_f_measure` for how the universe size
        handles unclustered transactions).
    reference:
        Mapping transaction identifier -> class label (the ground truth).
    universe_size:
        Unused here; accepted for signature symmetry.
    """
    # class -> members
    classes: Dict[str, List[str]] = {}
    for transaction_id, label in reference.items():
        classes.setdefault(label, []).append(transaction_id)

    cluster_sets = [set(cluster) for cluster in clusters]
    breakdown: List[FMeasureBreakdown] = []
    for label, members in sorted(classes.items()):
        member_set = set(members)
        best = FMeasureBreakdown(
            class_label=label,
            class_size=len(members),
            best_cluster=-1,
            precision=0.0,
            recall=0.0,
            f_score=0.0,
        )
        for cluster_index, cluster in enumerate(cluster_sets):
            if not cluster:
                continue
            intersection = len(cluster & member_set)
            if intersection == 0:
                continue
            precision = intersection / len(cluster)
            recall = intersection / len(member_set)
            score = pairwise_f(precision, recall)
            if score > best.f_score:
                best = FMeasureBreakdown(
                    class_label=label,
                    class_size=len(members),
                    best_cluster=cluster_index,
                    precision=precision,
                    recall=recall,
                    f_score=score,
                )
        breakdown.append(best)
    return breakdown


def overall_f_measure(
    clusters: Sequence[Sequence[str]],
    reference: Mapping[str, str],
) -> float:
    """Overall F-measure ``F(C, Gamma)`` of a clustering (Sec. 5.3).

    Parameters
    ----------
    clusters:
        Output partition as lists of transaction identifiers.  Pass the k
        content clusters only; transactions that appear in the reference but
        in no cluster (e.g. trash members) lower recall implicitly because
        class sizes come from the reference.
    reference:
        Mapping transaction identifier -> class label.

    Returns
    -------
    float
        Weighted sum over classes of the best per-class F score, normalised
        by the number of labelled transactions.
    """
    if not reference:
        return 0.0
    breakdown = f_measure_breakdown(clusters, reference)
    total = sum(entry.class_size for entry in breakdown)
    if total == 0:
        return 0.0
    weighted = sum(entry.class_size * entry.f_score for entry in breakdown)
    return weighted / total
