"""Exporting correlation networks to portable formats.

Downstream analyses (graph embedding, visualization, feature selection — the
follow-on steps the paper's fMRI motivation mentions) typically consume edge
lists rather than in-memory graph objects.  These helpers write whole
dynamic networks as one temporal edge-list CSV.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.core.result import CorrelationSeriesResult


def write_temporal_edge_list(
    result: CorrelationSeriesResult, path: Union[str, Path]
) -> Path:
    """Write all windows into one CSV: ``window, source, target, weight``.

    Node names use the result's series ids when available, otherwise indices.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ids = result.series_ids

    def node(i: int):
        return ids[i] if ids is not None else int(i)

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window", "source", "target", "weight"])
        for k, matrix in enumerate(result.matrices):
            for i, j, v in zip(matrix.rows, matrix.cols, matrix.values):
                writer.writerow([k, node(int(i)), node(int(j)), repr(float(v))])
    return path


def write_protocol_edge_list(
    result, path: Union[str, Path], series_ids: Optional[Sequence[str]] = None
) -> Path:
    """Write any unified-protocol result as ``window, source, target, weight, lag``.

    The protocol twin of :func:`write_temporal_edge_list`: consumes only
    ``to_edges()``, so thresholded, top-k and lagged results all export with
    one schema.  Node names use ``series_ids`` (or the result's own, when it
    carries them), otherwise indices.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ids = series_ids if series_ids is not None else getattr(result, "series_ids", None)

    def node(i: int):
        return ids[i] if ids is not None else int(i)

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["window", "source", "target", "weight", "lag"])
        for edge in result.to_edges():
            writer.writerow(
                [edge.window, node(edge.source), node(edge.target),
                 repr(float(edge.weight)), int(edge.lag)]
            )
    return path
