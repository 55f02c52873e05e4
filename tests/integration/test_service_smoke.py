"""Service smoke: the acceptance path of the catalog-backed query server.

Mirrors what the CI service-smoke job runs inside its 60-second budget:
generate a dataset, register it (data + a persisted index segment) in an
on-disk catalog, start a real HTTP server on an ephemeral port, and assert

1. a threshold query answered through :class:`ServiceClient` is
   **bit-identical** to the same query run in-process through
   :class:`CorrelationSession`,
2. a second identical request — issued concurrently — is served from the
   coalesced/warm-cache path (no second sketch build; asserted via the
   sketch ``CacheStats`` the server exposes), and
3. the streaming loop closes: appended columns reach a standing query and
   match the offline engine over the extended stream.
"""

import threading

import numpy as np
import pytest

from repro.api import CorrelationSession, LaggedQuery, ThresholdQuery, TopKQuery
from repro.service import CorrelationServer, CorrelationService, ServiceClient
from repro.service.wire import result_from_wire
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

NUM_SERIES = 12
LENGTH = 512
BASIC = 16

QUERY = ThresholdQuery(start=0, end=LENGTH, window=128, step=32, threshold=0.55)


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(20230618)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.5 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory, values):
    store = ChunkStore(NUM_SERIES, chunk_columns=128)
    store.append(values)
    catalog = Catalog(tmp_path_factory.mktemp("smoke-catalog"))
    catalog.add_dataset("generated", store, description="smoke dataset")
    catalog.add_index("generated", basic_window_size=BASIC)
    with CorrelationServer(CorrelationService(catalog, basic_window_size=BASIC)) as server:
        yield server


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(server.url)


def test_service_query_bit_identical_and_warm(client, values):
    local_session = CorrelationSession(
        TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
        basic_window_size=BASIC,
    )
    local = local_session.run(QUERY)

    remote = client.query("generated", QUERY)
    assert remote.query == local.query
    assert remote.to_edges() == local.to_edges()  # bit-identical, edge for edge
    for (_, ours), (_, theirs) in zip(local.iter_windows(), remote.iter_windows()):
        np.testing.assert_array_equal(ours.rows, theirs.rows)
        np.testing.assert_array_equal(ours.cols, theirs.cols)
        np.testing.assert_array_equal(ours.values, theirs.values)

    # Fire the identical query from several clients at once: every response
    # must stay bit-identical, and the server must not build a second sketch
    # — requests either coalesce onto the in-flight execution or hit the
    # warm cache.
    results = []

    def fire():
        results.append(client.query("generated", QUERY))

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(results) == 4
    assert all(result.to_edges() == local.to_edges() for result in results)

    stats = client.dataset("generated")["stats"]
    cache = stats["sketch_cache"]
    # The catalog's persisted index satisfied the first query, so the server
    # never built a sketch at all; repeats were warm hits or coalesced.
    assert cache["builds"] == 0 and cache["seeds"] == 1
    # ``queries`` counts answered requests, ``executed`` the planner scans;
    # the gap is the requests answered by coalescing/batching.
    assert stats["queries"] == 5
    assert stats["executed"] + stats["coalesced"] + stats["batched"] == 5
    assert stats["queries"] >= stats["coalesced"] + stats["batched"]


def test_streaming_append_reaches_standing_queries(client, values):
    watch = client.watch("generated", QUERY)
    assert watch["emitted_windows"] == QUERY.num_windows

    rng = np.random.default_rng(7)
    block = rng.standard_normal((NUM_SERIES, 64))
    response = client.append("generated", block)
    assert response["length"] == LENGTH + 64
    (state,) = [w for w in response["watches"] if w["id"] == watch["id"]]
    assert len(state["windows"]) == 2  # 64 new columns complete two 32-steps

    full = np.concatenate([values, block], axis=1)
    offline = CorrelationSession(
        TimeSeriesMatrix(full), basic_window_size=BASIC
    ).run(
        ThresholdQuery(start=0, end=LENGTH + 64, window=128, step=32,
                       threshold=QUERY.threshold)
    )
    for emitted in state["windows"]:
        matrix = offline.matrices[emitted["index"]]
        assert emitted["rows"] == matrix.rows.tolist()
        assert emitted["cols"] == matrix.cols.tolist()
        assert emitted["values"] == pytest.approx(matrix.values.tolist())


def test_appended_stream_refreshes_sketch_incrementally(client, values):
    """Runs after the append test: the 64 appended columns advanced the
    fingerprint chain, and the standing query registered there advanced over
    the dataset's shared sketch at append time — refreshing the seeded sketch
    in O(Δ).  Querying the grown range is then a warm hit on that same entry:
    one extension in total, and ``builds`` stays at zero (an extension is not
    a rebuild)."""
    stats = client.dataset("generated")["stats"]["sketch_cache"]
    assert {"extensions", "extended_windows"} <= set(stats)
    assert stats["extensions"] == 1  # the watch's advance, at append time
    hits_before = stats["hits"]

    grown_query = ThresholdQuery(start=0, end=LENGTH + 64, window=128, step=32,
                                 threshold=QUERY.threshold)
    document = client.query_raw("generated", grown_query)
    # The chained entry already covers every basic window of the grown range.
    assert "build=incremental(chained sketch covers 36/36" in document["plan"]

    rng = np.random.default_rng(7)  # the block the append test streamed in
    block = rng.standard_normal((NUM_SERIES, 64))
    offline = CorrelationSession(
        TimeSeriesMatrix(np.concatenate([values, block], axis=1)),
        basic_window_size=BASIC,
    ).run(grown_query)
    remote = result_from_wire(document)
    assert remote.to_edges() == offline.to_edges()

    stats = client.dataset("generated")["stats"]["sketch_cache"]
    assert stats["hits"] > hits_before  # the query shared the watch's sketch
    assert stats["extensions"] == 1
    assert stats["extended_windows"] == 64 // BASIC
    assert stats["builds"] == 0  # the seeded sketch was extended, not rebuilt


# --------------------------------------------------------------------------
# Scenario-matrix smoke: the execution cells served over
# ``repro.result/v1``.  A second server is configured with a memory budget
# below the dense matrix, so top-k sketches build tiled and lagged queries
# stream their window buffers — while Dangoron's exact grid answers
# threshold queries from the same tiled sketch.  Every response must be bit-identical
# to a plain dense in-process run, and each response's ``plan`` string must
# prove the cell actually executed (no silent dense fallback passing as
# coverage).
# --------------------------------------------------------------------------
MATRIX_NUM = 96
#: Below the 96 x 512 x 8B = 384 KiB dense matrix, above one 96 x 128-column
#: window buffer (96 KiB): sketch builds tile and lagged windows stream.
MATRIX_BUDGET = 128 * 1024


@pytest.fixture(scope="module")
def matrix_values():
    rng = np.random.default_rng(20230807)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.6 * rng.standard_normal(LENGTH) for _ in range(MATRIX_NUM)]
    )


@pytest.fixture(scope="module")
def matrix_client(tmp_path_factory, matrix_values):
    store = ChunkStore(MATRIX_NUM, chunk_columns=128)
    store.append(matrix_values)
    catalog = Catalog(tmp_path_factory.mktemp("matrix-catalog"))
    catalog.add_dataset("cells", store, description="scenario-matrix dataset")
    service = CorrelationService(
        catalog, basic_window_size=BASIC, memory_budget=MATRIX_BUDGET,
    )
    with CorrelationServer(service) as server:
        yield ServiceClient(server.url)


@pytest.fixture(scope="module")
def matrix_reference(matrix_values):
    """Serial, dense, in-process: the bit-identity baseline for every cell."""
    return CorrelationSession(TimeSeriesMatrix(matrix_values), basic_window_size=BASIC)


def _served(client, query):
    document = client.query_raw("cells", query)
    return document["plan"], result_from_wire(document)


def test_matrix_smoke_threshold_tiled(matrix_client, matrix_reference):
    query = ThresholdQuery(start=0, end=LENGTH, window=128, step=32, threshold=0.55)
    local = matrix_reference.run(query)
    plan, remote = _served(matrix_client, query)
    assert "exec=serial" in plan
    # The grid reads only the sketch, so the budget bounds the build.
    assert "answer=exact" in plan
    assert f"build=tiled(budget={MATRIX_BUDGET}B)" in plan
    for (_, ours), (_, theirs) in zip(local.iter_windows(), remote.iter_windows()):
        np.testing.assert_array_equal(ours.rows, theirs.rows)
        np.testing.assert_array_equal(ours.cols, theirs.cols)
        np.testing.assert_array_equal(ours.values, theirs.values)


def test_matrix_smoke_topk_tiled(matrix_client, matrix_reference):
    query = TopKQuery(start=0, end=LENGTH, window=128, step=32, k=25)
    local = matrix_reference.run(query)
    plan, remote = _served(matrix_client, query)
    assert "exec=serial" in plan
    assert f"build=tiled(budget={MATRIX_BUDGET}B)" in plan
    assert remote.k == local.k and remote.num_windows == local.num_windows
    for ours, theirs in zip(local.windows, remote.windows):
        assert ours.window_index == theirs.window_index
        np.testing.assert_array_equal(ours.rows, theirs.rows)
        np.testing.assert_array_equal(ours.cols, theirs.cols)
        np.testing.assert_array_equal(ours.values, theirs.values)


def test_matrix_smoke_lagged_streamed(matrix_client, matrix_reference):
    query = LaggedQuery(start=0, end=LENGTH, window=128, step=32,
                        max_lag=4, threshold=0.6)
    local = matrix_reference.run(query)
    plan, remote = _served(matrix_client, query)
    assert "exec=serial" in plan
    assert f"build=tiled(budget={MATRIX_BUDGET}B)" in plan
    assert remote.num_windows == local.num_windows
    for ours, theirs in zip(local.windows, remote.windows):
        assert ours.window_index == theirs.window_index
        np.testing.assert_array_equal(ours.best_corr, theirs.best_corr)
        np.testing.assert_array_equal(ours.best_lag, theirs.best_lag)
