"""Validation of Tomborg output against its ground truth.

A benchmark generator is only useful if the data it produces actually has the
correlation structure it claims.  These helpers quantify the gap between the
target matrices recorded in a :class:`TomborgDataset` and the empirical
correlations of the generated series, both as matrix-level error metrics and
as edge-set agreement at a threshold (the quantity the sliding-query
experiments ultimately care about).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.core.correlation import correlation_matrix
from repro.exceptions import GenerationError
from repro.tomborg.generator import TomborgDataset


@dataclass
class SegmentValidation:
    """Error metrics for one generated segment."""

    segment_index: int
    start: int
    end: int
    max_abs_error: float
    mean_abs_error: float
    rmse: float
    edge_jaccard: float

    def as_dict(self) -> dict:
        return {
            "segment": self.segment_index,
            "start": self.start,
            "end": self.end,
            "max_abs_error": self.max_abs_error,
            "mean_abs_error": self.mean_abs_error,
            "rmse": self.rmse,
            "edge_jaccard": self.edge_jaccard,
        }


def empirical_correlation(dataset: TomborgDataset, start: int, end: int) -> np.ndarray:
    """Empirical correlation matrix of the generated data over ``[start, end)``."""
    if start < 0 or end > dataset.length or start >= end:
        raise GenerationError(f"invalid column range [{start}, {end})")
    return correlation_matrix(dataset.matrix.values[:, start:end])


def _edge_jaccard(target: np.ndarray, empirical: np.ndarray, beta: float) -> float:
    iu, ju = np.triu_indices(target.shape[0], k=1)
    target_edges = set(zip(iu[target[iu, ju] >= beta], ju[target[iu, ju] >= beta]))
    empirical_edges = set(
        zip(iu[empirical[iu, ju] >= beta], ju[empirical[iu, ju] >= beta])
    )
    union = target_edges | empirical_edges
    if not union:
        return 1.0
    return len(target_edges & empirical_edges) / len(union)


def validate_dataset(
    dataset: TomborgDataset, edge_threshold: float = 0.7
) -> List[SegmentValidation]:
    """Compare every segment's empirical correlation with its target.

    Returns one :class:`SegmentValidation` per segment.  ``edge_jaccard`` is
    the Jaccard similarity between the edge sets induced by thresholding the
    target and the empirical matrix at ``edge_threshold``.
    """
    results: List[SegmentValidation] = []
    for index, segment in enumerate(dataset.segments):
        empirical = empirical_correlation(dataset, segment.start, segment.end)
        target = np.asarray(segment.target, dtype=FLOAT_DTYPE)
        iu, ju = np.triu_indices(target.shape[0], k=1)
        errors = np.abs(empirical[iu, ju] - target[iu, ju])
        results.append(
            SegmentValidation(
                segment_index=index,
                start=segment.start,
                end=segment.end,
                max_abs_error=float(errors.max()) if len(errors) else 0.0,
                mean_abs_error=float(errors.mean()) if len(errors) else 0.0,
                rmse=float(np.sqrt(np.mean(errors**2))) if len(errors) else 0.0,
                edge_jaccard=_edge_jaccard(target, empirical, edge_threshold),
            )
        )
    return results
