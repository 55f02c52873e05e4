"""JSON wire schema for the unified query spec family and result protocol.

The service speaks the same objects the library does — query specs in,
results implementing ``describe``/``iter_windows``/``to_edges`` out — so this
module is a *bijection*, not a lossy view: ``result_from_wire(result_to_wire(r))``
reconstructs a result that is bit-identical to ``r`` (JSON round-trips Python
floats exactly via their shortest repr), which is what lets a client assert
equality with an in-process :class:`~repro.api.CorrelationSession` run.

Wire documents are versioned under ``schema = "repro.result/v1"``.  Every
result document carries:

``kind``
    The discriminator (``"threshold"`` / ``"topk"`` / ``"lagged"``) — the
    ``kind`` attribute of the result classes.
``query``
    The query spec document (see :func:`query_to_wire`), discriminated by
    ``mode``.
``num_windows``, ``num_series``, ``describe``
    Redundant summaries so dashboards can render without decoding windows.
``windows``
    The per-window payloads: sparse ``rows``/``cols``/``values`` triples for
    threshold and top-k results, dense ``best_corr``/``best_lag`` matrices
    for lagged results.
``edges`` (optional)
    The flattened ``to_edges()`` records as ``[window, source, target,
    weight, lag]`` rows, included when serialized with ``include_edges=True``.

The exact field lists are documented with JSON examples in
``docs/service.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.api.queries import LaggedQuery, ThresholdQuery, TopKQuery
from repro.api.results import LaggedSeriesResult
from repro.core.lag import LagMatrices
from repro.core.query import SlidingQuery, THRESHOLD_SIGNED
from repro.core.result import CorrelationSeriesResult, Edge, EngineStats, ThresholdedMatrix
from repro.core.topk import TopKResult, TopKWindow
from repro.exceptions import ServiceError

#: Version tag stamped on (and required from) every result document.
RESULT_SCHEMA = "repro.result/v1"

_MODES = ("threshold", "topk", "lagged")

_COMMON_QUERY_FIELDS = ("mode", "start", "end", "window", "step", "threshold",
                        "threshold_mode")
_EXTRA_QUERY_FIELDS = {
    "threshold": (),
    "topk": ("k", "absolute"),
    "lagged": ("max_lag", "absolute"),
}


# ---------------------------------------------------------------------------
# Field coercion helpers
# ---------------------------------------------------------------------------

def _require(payload: Dict[str, object], field: str) -> object:
    if field not in payload:
        raise ServiceError(f"query spec is missing required field {field!r}")
    return payload[field]


def _as_int(payload: Dict[str, object], field: str, default: Optional[int] = None) -> int:
    value = payload.get(field, default) if default is not None else _require(payload, field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"query field {field!r} must be an integer, got {value!r}")
    return value


def _as_float(payload: Dict[str, object], field: str, default: Optional[float] = None) -> float:
    if field in payload:
        value = payload[field]
    elif default is not None:
        value = default
    else:
        value = _require(payload, field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(f"query field {field!r} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Query specs
# ---------------------------------------------------------------------------

def query_to_wire(query: SlidingQuery) -> Dict[str, object]:
    """Serialize any member of the query spec family to its wire document."""
    document: Dict[str, object] = {
        "mode": getattr(query, "mode", "threshold"),
        "start": query.start,
        "end": query.end,
        "window": query.window,
        "step": query.step,
        "threshold": query.threshold,
        "threshold_mode": query.threshold_mode,
    }
    if isinstance(query, TopKQuery):
        document["k"] = query.k
        document["absolute"] = query.absolute
    elif isinstance(query, LaggedQuery):
        document["max_lag"] = query.max_lag
        document["absolute"] = query.absolute
    return document


def query_from_wire(payload: Dict[str, object]) -> SlidingQuery:
    """Parse a wire document into the matching query spec object.

    Validation is two-layered: unknown fields and type errors raise
    :class:`ServiceError` here (they are *protocol* mistakes), while
    inconsistent query parameters raise the library's usual
    :class:`~repro.exceptions.QueryValidationError` from the spec
    constructors (they are *query* mistakes).  Both map to HTTP 400.
    """
    if not isinstance(payload, dict):
        raise ServiceError(f"query spec must be a JSON object, got {type(payload).__name__}")
    mode = payload.get("mode", "threshold")
    if mode not in _MODES:
        raise ServiceError(f"query mode must be one of {_MODES}, got {mode!r}")
    allowed = set(_COMMON_QUERY_FIELDS) | set(_EXTRA_QUERY_FIELDS[mode])
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ServiceError(
            f"unknown query field(s) {unknown} for mode {mode!r}; "
            f"allowed: {sorted(allowed)}"
        )
    common = dict(
        start=_as_int(payload, "start"),
        end=_as_int(payload, "end"),
        window=_as_int(payload, "window"),
        step=_as_int(payload, "step"),
        threshold_mode=str(payload.get("threshold_mode", THRESHOLD_SIGNED)),
    )
    absolute = payload.get("absolute", None)
    if absolute is not None and not isinstance(absolute, bool):
        raise ServiceError(f"query field 'absolute' must be a boolean or null, got {absolute!r}")
    if mode == "topk":
        return TopKQuery(
            threshold=_as_float(payload, "threshold", default=1.0),
            k=_as_int(payload, "k", default=10),
            absolute=absolute,
            **common,
        )
    if mode == "lagged":
        return LaggedQuery(
            threshold=_as_float(payload, "threshold", default=0.0),
            max_lag=_as_int(payload, "max_lag", default=1),
            absolute=absolute,
            **common,
        )
    return ThresholdQuery(threshold=_as_float(payload, "threshold"), **common)


# ---------------------------------------------------------------------------
# Engine statistics
# ---------------------------------------------------------------------------

_STATS_FIELDS = (
    "engine", "num_series", "num_windows", "exact_evaluations",
    "skipped_by_jumping", "pruned_horizontally", "candidate_pairs",
    "sketch_build_seconds", "query_seconds",
)


def stats_to_wire(stats: EngineStats) -> Dict[str, object]:
    document: Dict[str, object] = {f: getattr(stats, f) for f in _STATS_FIELDS}
    document["extra"] = dict(stats.extra)
    return document


def stats_from_wire(payload: Dict[str, object]) -> EngineStats:
    known = {f: payload[f] for f in _STATS_FIELDS if f in payload}
    return EngineStats(extra=dict(payload.get("extra", {})), **known)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

def edges_to_wire(edges: Sequence[Edge]) -> List[List[object]]:
    """Flatten protocol edges to ``[window, source, target, weight, lag]`` rows."""
    return [[e.window, e.source, e.target, e.weight, e.lag] for e in edges]


AnyResult = Union[CorrelationSeriesResult, TopKResult, LaggedSeriesResult]


def result_to_wire(result: AnyResult, include_edges: bool = False) -> Dict[str, object]:
    """Serialize any unified-protocol result to its versioned wire document."""
    kind = getattr(result, "kind", None)
    if kind == "threshold":
        windows = [
            {
                "index": k,
                "rows": edges.rows.tolist(),
                "cols": edges.cols.tolist(),
                "values": edges.values.tolist(),
            }
            for k, edges in result.iter_windows()
        ]
        extras: Dict[str, object] = {
            "num_series": result.num_series,
            "series_ids": list(result.series_ids) if result.series_ids else None,
            "stats": stats_to_wire(result.stats),
        }
    elif kind == "topk":
        windows = [
            {
                "index": window.window_index,
                "rows": window.rows.tolist(),
                "cols": window.cols.tolist(),
                "values": window.values.tolist(),
            }
            for window in result.windows
        ]
        extras = {"k": result.k, "absolute": result.absolute}
    elif kind == "lagged":
        windows = [
            {
                "index": window.window_index,
                "best_corr": window.best_corr.tolist(),
                "best_lag": window.best_lag.tolist(),
            }
            for window in result.windows
        ]
        extras = {"num_series": result.num_series}
    else:
        raise ServiceError(
            f"cannot serialize {type(result).__name__}: it declares no wire kind"
        )
    document: Dict[str, object] = {
        "schema": RESULT_SCHEMA,
        "kind": kind,
        "query": query_to_wire(result.query),
        "num_windows": result.num_windows,
        "describe": result.describe(),
        "windows": windows,
        **extras,
    }
    if include_edges:
        document["edges"] = edges_to_wire(result.to_edges())
    return document


def result_from_wire(payload: Dict[str, object]) -> AnyResult:
    """Reconstruct the typed result object from a wire document.

    The reconstruction is exact: arrays, query fields and engine statistics
    come back bit-identical, so ``describe()``/``to_edges()`` of the parsed
    result match the original's.
    """
    if not isinstance(payload, dict):
        raise ServiceError(f"result document must be a JSON object, got {type(payload).__name__}")
    schema = payload.get("schema")
    if schema != RESULT_SCHEMA:
        raise ServiceError(
            f"unsupported result schema {schema!r} (this client speaks {RESULT_SCHEMA!r})"
        )
    kind = payload.get("kind")
    try:
        query = query_from_wire(payload["query"])
        windows = payload["windows"]
        if kind == "threshold":
            num_series = int(payload["num_series"])
            matrices = [
                ThresholdedMatrix(
                    num_series,
                    np.asarray(w["rows"], dtype=np.int64),
                    np.asarray(w["cols"], dtype=np.int64),
                    np.asarray(w["values"], dtype=np.float64),
                )
                for w in windows
            ]
            series_ids = payload.get("series_ids")
            stats = stats_from_wire(payload.get("stats") or {})
            return CorrelationSeriesResult(query, matrices, stats=stats, series_ids=series_ids)
        if kind == "topk":
            topk_windows = [
                TopKWindow(
                    int(w["index"]),
                    np.asarray(w["rows"], dtype=np.int64),
                    np.asarray(w["cols"], dtype=np.int64),
                    np.asarray(w["values"], dtype=np.float64),
                )
                for w in windows
            ]
            return TopKResult(
                query=query,
                k=int(payload["k"]),
                absolute=bool(payload["absolute"]),
                windows=topk_windows,
            )
        if kind == "lagged":
            lag_windows = [
                LagMatrices(
                    window_index=int(w["index"]),
                    best_corr=np.asarray(w["best_corr"], dtype=np.float64),
                    best_lag=np.asarray(w["best_lag"], dtype=np.int64),
                )
                for w in windows
            ]
            return LaggedSeriesResult(query, lag_windows)
    except (KeyError, TypeError, ValueError) as error:
        raise ServiceError(f"malformed result document: {error}") from error
    raise ServiceError(f"unknown result kind {kind!r} (expected one of {_MODES})")
