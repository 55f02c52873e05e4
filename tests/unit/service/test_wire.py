"""JSON wire round-trips for the query family and all three result kinds.

The wire layer's contract is exactness: serializing through real JSON text
(not just dicts) and parsing back must reproduce the original objects bit
for bit — same query, same arrays, same edges, same describe().
"""

import json

import numpy as np
import pytest

from repro.api import (
    CorrelationSession,
    LaggedQuery,
    LaggedSeriesResult,
    ThresholdQuery,
    TopKQuery,
)
from repro.core.query import SlidingQuery, THRESHOLD_ABSOLUTE
from repro.core.result import CorrelationSeriesResult, EngineStats, ThresholdedMatrix
from repro.exceptions import QueryValidationError, ServiceError
from repro.service.wire import (
    RESULT_SCHEMA,
    edges_to_wire,
    query_from_wire,
    query_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.timeseries.matrix import TimeSeriesMatrix


def json_round_trip(document):
    """Push the document through real JSON text, as HTTP would."""
    return json.loads(json.dumps(document))


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(77)
    base = rng.standard_normal(192)
    values = np.stack([base + 0.2 * rng.standard_normal(192) for _ in range(5)])
    return CorrelationSession(TimeSeriesMatrix(values), basic_window_size=16)


class TestQueryRoundTrip:
    @pytest.mark.parametrize(
        "query",
        [
            ThresholdQuery(start=0, end=192, window=64, step=32, threshold=0.7),
            ThresholdQuery(start=16, end=176, window=32, step=16, threshold=-0.2,
                           threshold_mode=THRESHOLD_ABSOLUTE),
            TopKQuery(start=0, end=192, window=64, step=32, k=4),
            TopKQuery(start=0, end=192, window=64, step=32, k=2, absolute=True),
            LaggedQuery(start=0, end=192, window=64, step=32, max_lag=3,
                        threshold=0.5),
        ],
    )
    def test_round_trip_is_identity(self, query):
        parsed = query_from_wire(json_round_trip(query_to_wire(query)))
        assert parsed == query
        assert type(parsed) is type(query)

    def test_plain_sliding_query_parses_as_threshold(self):
        query = SlidingQuery(start=0, end=128, window=32, step=16, threshold=0.5)
        parsed = query_from_wire(json_round_trip(query_to_wire(query)))
        assert isinstance(parsed, ThresholdQuery)
        assert (parsed.start, parsed.end, parsed.window, parsed.step,
                parsed.threshold) == (0, 128, 32, 16, 0.5)

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown query field"):
            query_from_wire({"mode": "threshold", "start": 0, "end": 64,
                             "window": 32, "step": 16, "threshold": 0.5,
                             "thresold": 0.5})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ServiceError, match="missing required field 'window'"):
            query_from_wire({"start": 0, "end": 64, "step": 16, "threshold": 0.5})

    def test_bad_types_rejected(self):
        with pytest.raises(ServiceError, match="must be an integer"):
            query_from_wire({"start": "zero", "end": 64, "window": 32,
                             "step": 16, "threshold": 0.5})
        with pytest.raises(ServiceError, match="must be a number"):
            query_from_wire({"start": 0, "end": 64, "window": 32, "step": 16,
                             "threshold": "high"})
        with pytest.raises(ServiceError, match="'absolute'"):
            query_from_wire({"mode": "topk", "start": 0, "end": 64, "window": 32,
                             "step": 16, "k": 3, "absolute": "yes"})

    def test_unknown_mode_rejected(self):
        with pytest.raises(ServiceError, match="query mode"):
            query_from_wire({"mode": "fourier", "start": 0, "end": 64,
                             "window": 32, "step": 16})

    def test_inconsistent_spec_raises_query_validation(self):
        # Protocol-valid but semantically broken specs keep the library's
        # error type (they map to the same HTTP 400 but name the real rule).
        with pytest.raises(QueryValidationError):
            query_from_wire({"start": 0, "end": 16, "window": 32, "step": 16,
                             "threshold": 0.5})


class TestResultRoundTrip:
    def assert_round_trip(self, result):
        parsed = result_from_wire(json_round_trip(result_to_wire(result)))
        assert type(parsed) is type(result)
        assert parsed.query == result.query
        assert parsed.num_windows == result.num_windows
        assert parsed.to_edges() == result.to_edges()
        assert parsed.describe() == result.describe()
        return parsed

    def test_threshold_round_trip(self, session):
        result = session.run(
            ThresholdQuery(start=0, end=192, window=64, step=32, threshold=0.6)
        )
        parsed = self.assert_round_trip(result)
        for (_, original), (_, reconstructed) in zip(
            result.iter_windows(), parsed.iter_windows()
        ):
            np.testing.assert_array_equal(original.rows, reconstructed.rows)
            np.testing.assert_array_equal(original.values, reconstructed.values)
        assert parsed.stats == result.stats

    def test_topk_round_trip(self, session):
        result = session.run(TopKQuery(start=0, end=192, window=64, step=32, k=3))
        self.assert_round_trip(result)

    def test_lagged_round_trip(self, session):
        result = session.run(
            LaggedQuery(start=0, end=192, window=64, step=32, max_lag=2,
                        threshold=0.4)
        )
        parsed = self.assert_round_trip(result)
        for original, reconstructed in zip(result.windows, parsed.windows):
            np.testing.assert_array_equal(original.best_corr, reconstructed.best_corr)
            np.testing.assert_array_equal(original.best_lag, reconstructed.best_lag)

    def test_empty_threshold_result_round_trips(self):
        # No window has any surviving edge; the document must still carry the
        # matrix size so the reconstruction validates.
        query = ThresholdQuery(start=0, end=64, window=32, step=16, threshold=0.9)
        empty = np.array([], dtype=int)
        matrices = [
            ThresholdedMatrix(4, empty, empty, np.array([]))
            for _ in range(query.num_windows)
        ]
        result = CorrelationSeriesResult(query, matrices, stats=EngineStats())
        parsed = self.assert_round_trip(result)
        assert parsed.num_series == 4
        assert parsed.total_edges() == 0

    def test_empty_lagged_edges_round_trip(self, session):
        # A lagged result whose threshold excludes every pair flattens to an
        # empty edge list on both sides of the wire.
        result = session.run(
            LaggedQuery(start=0, end=192, window=64, step=32, max_lag=1,
                        threshold=1.0)
        )
        assert result.to_edges() == []
        self.assert_round_trip(result)

    def test_include_edges_matches_protocol_flattening(self, session):
        result = session.run(
            ThresholdQuery(start=0, end=192, window=64, step=32, threshold=0.6)
        )
        document = json_round_trip(result_to_wire(result, include_edges=True))
        assert document["edges"] == json_round_trip(edges_to_wire(result.to_edges()))

    def test_series_ids_survive(self):
        query = ThresholdQuery(start=0, end=64, window=32, step=16, threshold=0.5)
        matrices = [
            ThresholdedMatrix(2, [0], [1], [0.75]) for _ in range(query.num_windows)
        ]
        result = CorrelationSeriesResult(query, matrices, series_ids=["left", "right"])
        parsed = result_from_wire(json_round_trip(result_to_wire(result)))
        assert parsed.series_ids == ["left", "right"]


class TestWireErrors:
    def test_schema_is_versioned(self, session):
        result = session.run(
            ThresholdQuery(start=0, end=192, window=64, step=32, threshold=0.6)
        )
        document = result_to_wire(result)
        assert document["schema"] == RESULT_SCHEMA
        document["schema"] = "repro.result/v0"
        with pytest.raises(ServiceError, match="unsupported result schema"):
            result_from_wire(document)

    def test_unknown_kind_rejected(self, session):
        document = result_to_wire(
            session.run(ThresholdQuery(start=0, end=192, window=64, step=32,
                                       threshold=0.6))
        )
        document["kind"] = "spectral"
        with pytest.raises(ServiceError, match="unknown result kind"):
            result_from_wire(document)

    def test_malformed_document_rejected(self):
        with pytest.raises(ServiceError, match="malformed result document"):
            result_from_wire({"schema": RESULT_SCHEMA, "kind": "threshold",
                              "query": {"mode": "threshold", "start": 0, "end": 64,
                                        "window": 32, "step": 16, "threshold": 0.5},
                              "windows": [{"rows": [0]}]})

    def test_unserializable_result_rejected(self):
        with pytest.raises(ServiceError, match="no wire kind"):
            result_to_wire(object())
