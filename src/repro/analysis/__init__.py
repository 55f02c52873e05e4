"""Accuracy, stability, significance and reporting utilities (substrate S10)."""

from repro.analysis.accuracy import (
    AccuracyReport,
    WindowAccuracy,
    compare_results,
    matrix_rmse,
)
from repro.analysis.report import (
    format_table,
    rows_from_dicts,
    summarize_result,
)
from repro.analysis.significance import (
    SignificanceReport,
    correlation_confidence_interval,
    correlation_pvalue,
    edge_pvalues,
    evaluate_significance,
    filter_significant,
    fisher_z,
    fisher_z_inverse,
    significance_threshold,
)
from repro.analysis.stability import (
    CrossingReport,
    DriftReport,
    correlation_drift,
    dense_correlation_series,
    stability_summary,
    threshold_crossings,
)

__all__ = [
    "AccuracyReport",
    "CrossingReport",
    "DriftReport",
    "SignificanceReport",
    "WindowAccuracy",
    "compare_results",
    "correlation_confidence_interval",
    "correlation_drift",
    "correlation_pvalue",
    "dense_correlation_series",
    "edge_pvalues",
    "evaluate_significance",
    "filter_significant",
    "fisher_z",
    "fisher_z_inverse",
    "format_table",
    "matrix_rmse",
    "rows_from_dicts",
    "significance_threshold",
    "stability_summary",
    "summarize_result",
    "threshold_crossings",
]
