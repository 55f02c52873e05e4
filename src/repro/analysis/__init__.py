"""Accuracy, significance and reporting utilities (substrate S10)."""

from repro.analysis.accuracy import AccuracyReport, WindowAccuracy, compare_results
from repro.analysis.report import format_table, summarize_result
from repro.analysis.significance import significance_threshold

__all__ = [
    "AccuracyReport",
    "WindowAccuracy",
    "compare_results",
    "format_table",
    "significance_threshold",
    "summarize_result",
]
