"""Accuracy metrics: how well an engine's networks match the exact answer.

The paper reports that Dangoron "achieves an accuracy above 90 percent,
comparable to Parcorr".  For threshold-based network construction the natural
accuracy notions are edge-set precision, recall and F1 against the exact
(brute-force) result, plus value-level error for the edges both engines
report.  All metrics here are computed per window and aggregated over the
query, because a pruned engine's misses concentrate in the windows right
after a pair crosses the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.result import CorrelationSeriesResult
from repro.exceptions import ExperimentError


@dataclass
class WindowAccuracy:
    """Edge-set agreement of one window."""

    window_index: int
    true_edges: int
    reported_edges: int
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        reported = self.true_positives + self.false_positives
        return self.true_positives / reported if reported else 1.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def jaccard(self) -> float:
        union = self.true_positives + self.false_positives + self.false_negatives
        return self.true_positives / union if union else 1.0


@dataclass
class AccuracyReport:
    """Aggregated accuracy of an engine's result against the exact result."""

    engine: str
    windows: List[WindowAccuracy]
    value_rmse: float
    value_max_error: float

    @property
    def precision(self) -> float:
        tp = sum(w.true_positives for w in self.windows)
        fp = sum(w.false_positives for w in self.windows)
        return tp / (tp + fp) if (tp + fp) else 1.0

    @property
    def recall(self) -> float:
        tp = sum(w.true_positives for w in self.windows)
        fn = sum(w.false_negatives for w in self.windows)
        return tp / (tp + fn) if (tp + fn) else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def accuracy(self) -> float:
        """The paper's headline number: edge-set F1 expressed as a fraction.

        "Accuracy above 90 percent" is interpreted as the harmonic mean of
        precision and recall on reported edges exceeding 0.9; since exact
        engines have precision 1.0, this reduces to recall for them.
        """
        return self.f1

    def worst_window(self) -> WindowAccuracy:
        return min(self.windows, key=lambda w: w.f1)

    def as_dict(self) -> Dict[str, float]:
        return {
            "engine": self.engine,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "value_rmse": self.value_rmse,
            "value_max_error": self.value_max_error,
        }


def compare_results(
    candidate: CorrelationSeriesResult,
    reference: CorrelationSeriesResult,
) -> AccuracyReport:
    """Compare a candidate engine's result against the exact reference.

    Both results must answer the same query (same windows, same number of
    series).  Value errors are computed over the edges present in *both*
    results (where the candidate claims an exact value for a true edge).
    """
    if candidate.num_windows != reference.num_windows:
        raise ExperimentError(
            f"window counts differ: {candidate.num_windows} vs {reference.num_windows}"
        )
    if candidate.num_series != reference.num_series:
        raise ExperimentError(
            f"series counts differ: {candidate.num_series} vs {reference.num_series}"
        )

    windows: List[WindowAccuracy] = []
    squared_errors: List[float] = []
    max_error = 0.0
    for k, (cand, ref) in enumerate(zip(candidate.matrices, reference.matrices)):
        cand_edges = cand.edge_dict()
        ref_edges = ref.edge_dict()
        cand_set = set(cand_edges)
        ref_set = set(ref_edges)
        both = cand_set & ref_set
        windows.append(
            WindowAccuracy(
                window_index=k,
                true_edges=len(ref_set),
                reported_edges=len(cand_set),
                true_positives=len(both),
                false_positives=len(cand_set - ref_set),
                false_negatives=len(ref_set - cand_set),
            )
        )
        for edge in both:
            error = abs(cand_edges[edge] - ref_edges[edge])
            squared_errors.append(error * error)
            max_error = max(max_error, error)

    rmse = float(np.sqrt(np.mean(squared_errors))) if squared_errors else 0.0
    return AccuracyReport(
        engine=candidate.stats.engine,
        windows=windows,
        value_rmse=rmse,
        value_max_error=max_error,
    )
