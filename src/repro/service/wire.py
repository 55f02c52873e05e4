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

Response bodies (:func:`encode_result`) are byte-identical to
``json.dumps`` of :func:`result_to_wire`'s document.  ``json.dumps``
writes everything but the window arrays and the edge rows, which
:mod:`repro.service.numtext` renders in vectorised passes, each value once:
floats as their shortest round-trip text (``float.__repr__``'s), certified
by exact arithmetic, with a per-value ``float.__repr__`` fallback for the
values the vectorised path does not take.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.queries import LaggedQuery, ThresholdQuery, TopKQuery
from repro.api.results import LaggedSeriesResult
from repro.core.lag import LagMatrices
from repro.core.query import SlidingQuery, THRESHOLD_SIGNED
from repro.core.result import CorrelationSeriesResult, EngineStats, ThresholdedMatrix
from repro.core.topk import TopKResult, TopKWindow
from repro.exceptions import ServiceError
from repro.service import numtext

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
    try:
        return float(value)
    except OverflowError as error:
        raise ServiceError(f"query field {field!r} is too large for a float") from error


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
    "sketch_build_seconds", "query_seconds", "exactness",
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

AnyResult = Union[CorrelationSeriesResult, TopKResult, LaggedSeriesResult]

#: What :func:`encode_result` counts: floats rendered into a body, and those
#: of them spelled by ``float.__repr__`` one at a time.
ENCODE_COUNTS = ("rendered_floats", "fallback_floats")

#: Stand for the ``windows`` and ``edges`` lists in a document being encoded.
_WINDOWS = object()
_EDGES = object()
#: One window's ``index`` and its named arrays, in wire order.
_Window = Tuple[int, Tuple[Tuple[str, np.ndarray], ...]]


def _wire_parts(result: AnyResult) -> Tuple[Dict[str, object], List[_Window]]:
    """A result's wire document with ``windows`` left out, and its windows."""
    kind = getattr(result, "kind", None)
    if kind == "threshold":
        windows = [
            (k, (("rows", edges.rows), ("cols", edges.cols), ("values", edges.values)))
            for k, edges in result.iter_windows()
        ]
        extras: Dict[str, object] = {
            "num_series": result.num_series,
            "series_ids": list(result.series_ids) if result.series_ids else None,
            "stats": stats_to_wire(result.stats),
        }
    elif kind == "topk":
        windows = [
            (w.window_index, (("rows", w.rows), ("cols", w.cols), ("values", w.values)))
            for w in result.windows
        ]
        extras = {"k": result.k, "absolute": result.absolute}
    elif kind == "lagged":
        windows = [
            (w.window_index, (("best_corr", w.best_corr), ("best_lag", w.best_lag)))
            for w in result.windows
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
        "windows": _WINDOWS,
        **extras,
    }
    return document, windows


def result_to_wire(result: AnyResult, include_edges: bool = False) -> Dict[str, object]:
    """Serialize any unified-protocol result to its versioned wire document."""
    document, windows = _wire_parts(result)
    document["windows"] = [
        {"index": index, **{name: array.tolist() for name, array in arrays}}
        for index, arrays in windows
    ]
    if include_edges:
        if document["kind"] == "lagged":
            document["edges"] = [list(edge) for edge in result.to_edges()]
        else:
            # ``to_edges()`` order and values, read from the window lists
            # above instead of building one ``Edge`` per pair.
            document["edges"] = [
                [window["index"], row, col, value, 0]
                for window in document["windows"]
                for row, col, value in zip(window["rows"], window["cols"], window["values"])
            ]
    return document


def encode_result(
    head: Dict[str, object],
    result: AnyResult,
    include_edges: bool = False,
    counts: Optional[Dict[str, int]] = None,
) -> bytes:
    """The UTF-8 JSON response body ``{**head, **result_to_wire(result, include_edges)}``.

    The bytes are ``json.dumps`` of that document, but the window arrays
    and the edge rows are rendered by :mod:`repro.service.numtext`: each
    value once, in vectorised passes, floats as their shortest round-trip
    text (``float.__repr__`` one at a time only where the vectorised path
    cannot certify the digits).  ``json.dumps`` still writes the rest.
    ``counts``, when given, gains the :data:`ENCODE_COUNTS`.

    The service calls this once per answer, in the process holding the
    result: a pool worker sends these bytes, and the parent forwards them.
    """
    document, windows = _wire_parts(result)
    if counts is not None:
        for key in ENCODE_COUNTS:
            counts.setdefault(key, 0)
    if document["kind"] == "lagged":
        windows_text, edges_text = _lagged_text(result, windows, include_edges, counts)
    else:
        windows_text, edges_text = _sparse_text(windows, include_edges, counts)
    fields = {**head, **document}
    if include_edges:
        fields["edges"] = _EDGES
    # json.dumps writes every run of ordinary fields; the rendered lists
    # go between them.
    pieces: List[bytes] = []
    plain: Dict[str, object] = {}
    for key, value in fields.items():
        if value is _WINDOWS or value is _EDGES:
            if plain:
                pieces.append(json.dumps(plain).encode()[1:-1])
                plain = {}
            text = windows_text if value is _WINDOWS else edges_text
            pieces.append(json.dumps(key).encode() + b": " + text)
        else:
            plain[key] = value
    if plain:
        pieces.append(json.dumps(plain).encode()[1:-1])
    return b"{" + b", ".join(pieces) + b"}"


def _windows_text(windows: Sequence[_Window], texts: Sequence[List[bytes]]) -> bytes:
    """The ``windows`` list, given each named array's text by field."""
    names = [name for name, _ in windows[0][1]] if windows else []
    keys = [b", " + json.dumps(name).encode() + b": " for name in names]
    return b"[" + b", ".join(
        b'{"index": '
        + (b"%d" % index if type(index) is int else json.dumps(index).encode())
        + b"".join(key + field[k] for key, field in zip(keys, texts))
        + b"}"
        for k, (index, _) in enumerate(windows)
    ) + b"]"


def _edge_rows(pieces: Sequence[numtext.Tokens], closing: numtext.Tokens) -> bytes:
    """The ``edges`` list: one ``[a, b, ...]`` row per row of the tokens.

    Every piece ends in its ``", "``; ``closing`` ends the row in ``"], "``.
    """
    n = len(closing.lengths)
    if not n:
        return b"[]"
    text, _ = numtext.concat_rows([numtext.constant(b"[", n), *pieces, closing])
    return b"[" + text[:-2] + b"]"


def _sparse_text(windows, include_edges, counts):
    """Threshold and top-k ``windows`` text, and the ``edges`` text if asked."""
    k = len(windows)
    pairs, pair_tokens = numtext.array_texts(
        [arrays[0][1] for _, arrays in windows] + [arrays[1][1] for _, arrays in windows]
    )
    values, value_tokens = numtext.array_texts(
        [arrays[2][1] for _, arrays in windows], counts
    )
    windows_text = _windows_text(windows, [pairs[:k], pairs[k:], values])
    if not include_edges:
        return windows_text, None
    n = len(value_tokens.lengths)
    index = np.repeat(
        np.array([index for index, _ in windows], dtype=np.int64),
        [len(arrays[2][1]) for _, arrays in windows],
    )
    return windows_text, _edge_rows(
        [
            numtext.int_tokens(index),
            numtext.Tokens(*(part[:n] for part in pair_tokens)),
            numtext.Tokens(*(part[n:] for part in pair_tokens)),
            value_tokens,
        ],
        numtext.constant(b"0], ", n),
    )


def _lagged_text(result, windows, include_edges, counts):
    """Lagged ``windows`` text (dense matrices), and the ``edges`` text if asked."""
    corrs = [np.asarray(arrays[0][1]) for _, arrays in windows]
    lags = [np.asarray(arrays[1][1]) for _, arrays in windows]
    corr_texts, corr_tokens = numtext.array_texts(corrs, counts)
    lag_texts, lag_tokens = numtext.array_texts(lags)
    windows_text = _windows_text(windows, [corr_texts, lag_texts])
    if not include_edges:
        return windows_text, None
    # ``to_edges()``: each window's pairs at the query's threshold, row-major.
    query = result.query
    index, rows, cols, corr_at, lag_at = [], [], [], [], []
    corr_offset = lag_offset = 0
    for (window_index, _), corr, lag, window in zip(windows, corrs, lags, result.windows):
        r, c = window.edge_pairs(query.threshold, query.threshold_mode)
        index.append(np.full(len(r), window_index, dtype=np.int64))
        rows.append(r)
        cols.append(c)
        corr_at.append(corr_offset + r * corr.shape[1] + c)
        lag_at.append(lag_offset + r * lag.shape[1] + c)
        corr_offset += corr.size
        lag_offset += lag.size
    corr_at, lag_at = np.concatenate(corr_at), np.concatenate(lag_at)
    # Edge weights are ``float(v)`` and lags ``int(d)``: the window tokens
    # already spell them unless the matrices hold other dtypes.
    weights, shifts = corr_tokens.take(corr_at), lag_tokens.take(lag_at)
    if not all(corr.dtype.kind == "f" and corr.dtype.itemsize <= 8 for corr in corrs):
        flat = np.concatenate([corr.ravel() for corr in corrs])
        weights = numtext.float_tokens(flat[corr_at].astype(np.float64), counts)
    if not all(lag.dtype.kind in "iu" for lag in lags):
        flat = np.concatenate([lag.ravel() for lag in lags])
        shifts = numtext.int_tokens(flat[lag_at].astype(np.int64))
    return windows_text, _edge_rows(
        [
            numtext.int_tokens(np.concatenate(index)),
            numtext.int_tokens(np.concatenate(rows)),
            numtext.int_tokens(np.concatenate(cols)),
            weights,
        ],
        numtext.with_tail(shifts, close=True),
    )


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
