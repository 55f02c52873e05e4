"""Result-protocol conformance across all result types (repro.api.results)."""

import pytest

from repro.api import (
    CorrelationResult,
    CorrelationSession,
    LaggedQuery,
    LaggedSeriesResult,
    ThresholdQuery,
    TopKQuery,
)
from repro.core.lag import LagMatrices, lagged_correlation_matrix
from repro.core.result import Edge
from repro.network import union_graph_from_edges
from repro.analysis import summarize_result


@pytest.fixture(scope="module")
def results(small_matrix):
    """One result of every type over the same data."""
    session = CorrelationSession(small_matrix, basic_window_size=32)
    threshold = session.run(
        ThresholdQuery(start=0, end=512, window=128, step=64, threshold=0.6)
    )
    topk = session.run(TopKQuery(start=0, end=512, window=128, step=64, k=4))
    lagged = session.run(
        LaggedQuery(start=0, end=512, window=128, step=64, threshold=0.5, max_lag=4)
    )
    return {"threshold": threshold, "topk": topk, "lagged": lagged}


ALL_KINDS = ["threshold", "topk", "lagged"]


class TestProtocolConformance:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_satisfies_structural_protocol(self, results, kind):
        assert isinstance(results[kind], CorrelationResult)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_describe_is_a_summary_line(self, results, kind):
        text = results[kind].describe()
        assert isinstance(text, str) and text and "\n" not in text

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_num_windows_matches_query(self, results, kind):
        result = results[kind]
        assert result.num_windows == result.query.num_windows

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_iter_windows_yields_indexed_payloads(self, results, kind):
        pairs = list(results[kind].iter_windows())
        assert len(pairs) == results[kind].num_windows
        assert [index for index, _ in pairs] == list(range(len(pairs)))
        assert all(payload is not None for _, payload in pairs)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_to_edges_returns_well_formed_edges(self, results, kind):
        edges = results[kind].to_edges()
        assert edges, f"{kind} result produced no edges"
        for edge in edges:
            assert isinstance(edge, Edge)
            assert 0 <= edge.window < results[kind].num_windows
            assert 0 <= edge.source < edge.target
            assert -1.0 <= edge.weight <= 1.0

    def test_only_lagged_edges_carry_lags(self, results):
        assert all(e.lag == 0 for e in results["threshold"].to_edges())
        assert all(e.lag == 0 for e in results["topk"].to_edges())
        assert any(e.lag != 0 for e in results["lagged"].to_edges())


class TestSingleLagMatricesProtocol:
    def test_lag_matrices_is_a_one_window_result(self, small_matrix):
        window = lagged_correlation_matrix(
            small_matrix.values[:, :128], max_lag=4, window_index=3
        )
        assert isinstance(window, LagMatrices)
        assert isinstance(window, CorrelationResult)
        assert window.num_windows == 1
        assert list(window.iter_windows()) == [(3, window)]
        edges = window.to_edges(threshold=0.5)
        assert all(e.window == 3 for e in edges)
        assert len(window.to_edges()) >= len(edges)  # no threshold keeps all


class TestLaggedSeriesResult:
    def test_to_edges_applies_query_threshold(self, results):
        lagged: LaggedSeriesResult = results["lagged"]
        default = lagged.to_edges()
        strict = lagged.to_edges(threshold=0.8)
        assert len(strict) <= len(default)
        assert all(e.weight >= 0.5 for e in default)  # signed mode, beta=0.5

    def test_window_access(self, results):
        lagged = results["lagged"]
        assert len(lagged) == lagged.num_windows
        assert lagged[0].window_index == 0
        assert lagged.lag_profile(0, 1).shape == (lagged.num_windows,)


class TestUniformConsumers:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_network_builders_consume_any_result(self, results, kind):
        union = union_graph_from_edges(results[kind])
        assert union.number_of_edges() > 0

    def test_lag_attribute_reaches_the_graph(self, results):
        union = union_graph_from_edges(results["lagged"])
        lags = [data["lag"] for _, _, data in union.edges(data=True)]
        assert any(lag != 0 for lag in lags)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_report_summary_consumes_any_result(self, results, kind):
        table = summarize_result(results[kind])
        assert "window" in table and "edges" in table
        # One row per window plus title, underline and header rows.
        assert len(table.splitlines()) == results[kind].num_windows + 4
