"""Cluster validity measures and report rendering."""

from repro.evaluation.fmeasure import (
    FMeasureBreakdown,
    f_measure_breakdown,
    overall_f_measure,
    pairwise_f,
    precision_recall_matrix,
)
from repro.evaluation.metrics import (
    adjusted_rand_index,
    clustering_report,
    normalized_mutual_information,
    purity,
)
from repro.evaluation.reporting import (
    comparison_table,
    format_accuracy_table,
    format_series,
    format_table,
)

__all__ = [
    "overall_f_measure",
    "f_measure_breakdown",
    "pairwise_f",
    "precision_recall_matrix",
    "FMeasureBreakdown",
    "purity",
    "normalized_mutual_information",
    "adjusted_rand_index",
    "clustering_report",
    "format_table",
    "format_series",
    "format_accuracy_table",
    "comparison_table",
]
