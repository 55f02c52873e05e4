"""Property tests: response floats read exactly as ``json.dumps`` writes them.

``repro.service.numtext`` renders every float of a response body in numpy
passes: the shortest of the correctly rounded 15-, 16- and 17-digit
decimals that round-trips, in ``repr``'s layout, with ``float.__repr__``
one value at a time where the exact test cannot certify the digits.  These
tests compare its text with ``json.dumps([x])[1:-1]`` per value, over raw
float64 bit patterns and over the values where shortest-digit printing
goes wrong (next to powers of ten and of two, on decimal halfway points),
and compare whole ``encode_result`` bodies of all three result kinds, with
and without edges, with ``json.dumps`` of ``result_to_wire``.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LaggedQuery, LaggedSeriesResult, ThresholdQuery, TopKQuery
from repro.core.lag import LagMatrices
from repro.core.result import CorrelationSeriesResult, EngineStats, ThresholdedMatrix
from repro.core.topk import TopKResult, TopKWindow
from repro.service.numtext import array_texts
from repro.service.wire import encode_result, result_to_wire

HEAD = {"dataset": "d", "plan": "plan[threshold] exec=serial"}


def _bits_to_float(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _step(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` doubles (toward +inf when positive)."""
    direction = np.inf if ulps > 0 else -np.inf
    out = np.float64(value)
    for _ in range(abs(ulps)):
        out = np.nextafter(out, direction)
    return float(out)


raw_floats = st.integers(0, 2 ** 64 - 1).map(_bits_to_float)
near_powers_of_ten = st.builds(
    lambda k, ulps, sign: sign * _step(10.0 ** k, ulps),
    st.integers(-25, 25), st.integers(-6, 6), st.sampled_from([1.0, -1.0]),
)
near_powers_of_two = st.builds(
    lambda k, ulps, sign: sign * _step(float(np.ldexp(1.0, k)), ulps),
    st.integers(-70, 70), st.integers(-6, 6), st.sampled_from([1.0, -1.0]),
)
# The doubles at and next to a decimal that lies halfway between two
# 15-, 16- or 17-digit decimals.
decimal_halfway = st.builds(
    lambda digits, exponent, ulps: _step(float(f"{digits}5e{exponent}"), ulps),
    st.one_of(
        st.integers(10 ** 14, 10 ** 15 - 1),
        st.integers(10 ** 15, 10 ** 16 - 1),
        st.integers(10 ** 16, 10 ** 17 - 1),
    ),
    st.integers(-40, 10), st.integers(-2, 2),
)
correlations = st.floats(-1.0, 1.0)
any_float = st.one_of(
    raw_floats, near_powers_of_ten, near_powers_of_two, decimal_halfway,
    correlations, st.floats(allow_nan=True, allow_infinity=True),
)


def _texts(values):
    (text,), _ = array_texts([np.array(values, dtype=np.float64)])
    return text.decode()[1:-1].split(", ") if values else []


@settings(max_examples=300, deadline=None)
@given(st.lists(any_float, min_size=1, max_size=40))
def test_each_value_is_spelled_as_json_dumps_spells_it(values):
    assert _texts(values) == [json.dumps([v])[1:-1] for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(raw_floats, min_size=1, max_size=40))
def test_raw_bit_patterns(values):
    assert _texts(values) == [json.dumps([v])[1:-1] for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(near_powers_of_ten, near_powers_of_two, decimal_halfway),
                min_size=1, max_size=40))
def test_values_next_to_powers_and_halfway_points(values):
    assert _texts(values) == [json.dumps([v])[1:-1] for v in values]


# ---------------------------------------------------------------------------
# Whole bodies
# ---------------------------------------------------------------------------

NUM_SERIES = 5
PAIRS = np.triu_indices(NUM_SERIES, k=1)


def _reference(result, include_edges):
    return json.dumps({**HEAD, **result_to_wire(result, include_edges)}).encode()


@st.composite
def sparse_windows(draw):
    """Per window: a sorted subset of the upper-triangle pairs and values."""
    windows = []
    for _ in range(draw(st.integers(1, 4))):
        keep = draw(st.lists(st.booleans(), min_size=len(PAIRS[0]), max_size=len(PAIRS[0])))
        count = int(np.count_nonzero(keep))
        values = draw(st.lists(any_float, min_size=count, max_size=count))
        windows.append((PAIRS[0][keep], PAIRS[1][keep], values))
    return windows


@settings(max_examples=100, deadline=None)
@given(sparse_windows(), st.booleans(), st.booleans())
def test_threshold_bodies(windows, include_edges, with_ids):
    query = ThresholdQuery(start=0, end=32 * len(windows), window=32, step=32,
                           threshold=-1.0)
    matrices = [ThresholdedMatrix(NUM_SERIES, r, c, v) for r, c, v in windows]
    stats = EngineStats(engine="dangoron", num_series=NUM_SERIES,
                        num_windows=len(windows), query_seconds=0.25)
    ids = [f"s{k}" for k in range(NUM_SERIES)] if with_ids else None
    result = CorrelationSeriesResult(query, matrices, stats=stats, series_ids=ids)
    counts = {}
    body = encode_result(HEAD, result, include_edges, counts)
    assert body == _reference(result, include_edges)
    assert counts["rendered_floats"] == sum(len(v) for _, _, v in windows)


@settings(max_examples=100, deadline=None)
@given(sparse_windows(), st.booleans())
def test_topk_bodies(windows, include_edges):
    query = TopKQuery(start=0, end=96, window=32, step=32, k=10, absolute=False)
    result = TopKResult(
        query=query, k=10, absolute=False,
        windows=[TopKWindow(k, r, c, v) for k, (r, c, v) in enumerate(windows)],
    )
    assert encode_result(HEAD, result, include_edges) == _reference(result, include_edges)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(any_float, min_size=NUM_SERIES ** 2, max_size=NUM_SERIES ** 2),
            st.lists(st.integers(-3, 3), min_size=NUM_SERIES ** 2, max_size=NUM_SERIES ** 2),
        ),
        min_size=1, max_size=3,
    ),
    st.sampled_from([-1.0, 0.0, 0.5]),
    st.sampled_from(["signed", "absolute"]),
    st.booleans(),
)
def test_lagged_bodies(windows, threshold, mode, include_edges):
    query = LaggedQuery(start=0, end=32 * len(windows), window=32, step=32, max_lag=3,
                        threshold=threshold, threshold_mode=mode)
    result = LaggedSeriesResult(query, [
        LagMatrices(k, np.reshape(corr, (NUM_SERIES, NUM_SERIES)),
                    np.reshape(lags, (NUM_SERIES, NUM_SERIES)))
        for k, (corr, lags) in enumerate(windows)
    ])
    assert encode_result(HEAD, result, include_edges) == _reference(result, include_edges)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-2, 2), min_size=NUM_SERIES ** 2, max_size=NUM_SERIES ** 2),
    st.sampled_from([np.float32, np.int64, np.bool_]),
    st.sampled_from([np.int8, np.float64]),
    st.booleans(),
)
def test_lagged_matrices_of_other_dtypes(values, corr_dtype, lag_dtype, include_edges):
    # Edges spell ``float(v)`` and ``int(d)`` whatever the matrices hold,
    # and windows of different dtypes keep their own spelling.
    query = LaggedQuery(start=0, end=64, window=32, step=32, max_lag=3, threshold=0.0)
    matrix = np.reshape(values, (NUM_SERIES, NUM_SERIES))
    result = LaggedSeriesResult(query, [
        LagMatrices(0, matrix.astype(corr_dtype), matrix.astype(lag_dtype)),
        LagMatrices(1, matrix / 4.0, matrix),
    ])
    assert encode_result(HEAD, result, include_edges) == _reference(result, include_edges)
