"""``encode_result`` writes the bytes of the document the service always sent.

The service encodes each answer once, in the process holding the result,
with ``json.dumps``; its ``edges`` rows come straight from the window lists
instead of one ``Edge`` per pair.  The contract is byte identity with the
document as ``to_edges()`` flattens it, for every result kind and for the
float values whose text is easiest to get wrong, and the same bytes on every
serving path.  Plain pytest on the stdlib plus numpy: CI's numpy-only
service job runs this file.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.api import LaggedQuery, LaggedSeriesResult, ThresholdQuery, TopKQuery
from repro.core.lag import LagMatrices
from repro.core.result import CorrelationSeriesResult, EngineStats, ThresholdedMatrix
from repro.core.topk import TopKResult, TopKWindow
from repro.exceptions import ServiceError
from repro.service import CorrelationService, result_from_wire
from repro.service.wire import encode_result, result_to_wire
from repro.service.workers import WorkerConfig, WorkerPool
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore

NUM_SERIES = 4
#: Values whose shortest round-trip text is unusual: the smallest subnormal,
#: a signed zero, and the two exponent spellings ``repr`` switches to.
AWKWARD = [5e-324, -0.0, 1e-05, 1e16]
HEAD = {"dataset": "demo", "plan": "plan[threshold] exec=serial"}

THRESHOLD = ThresholdQuery(start=0, end=96, window=32, step=32, threshold=-1.0)
PAIRS = ([0, 0, 1, 2], [1, 3, 2, 3])


def _reference(head, result, include_edges):
    """The body as it was built from ``to_edges()``, one ``Edge`` per pair."""
    document = {**head, **result_to_wire(result, include_edges=False)}
    if include_edges:
        document["edges"] = [list(edge) for edge in result.to_edges()]
    return json.dumps(document).encode()


def _threshold_result(series_ids):
    rows, cols = PAIRS
    matrices = [
        ThresholdedMatrix(NUM_SERIES, rows, cols, AWKWARD),
        ThresholdedMatrix(NUM_SERIES, [], [], []),
        ThresholdedMatrix(NUM_SERIES, rows[:2], cols[:2], [0.1, -0.75]),
    ]
    stats = EngineStats(engine="dangoron", num_series=NUM_SERIES, num_windows=3,
                        query_seconds=0.0123, extra={"note": "café"})
    return CorrelationSeriesResult(THRESHOLD, matrices, stats=stats,
                                   series_ids=series_ids)


def _topk_result():
    rows, cols = PAIRS
    query = TopKQuery(start=0, end=96, window=32, step=32, k=4, absolute=True)
    windows = [
        TopKWindow(0, rows, cols, AWKWARD[::-1]),
        TopKWindow(1, rows[:1], cols[:1], [0.5]),
        TopKWindow(2, [], [], []),
    ]
    return TopKResult(query=query, k=4, absolute=True, windows=windows)


def _lagged_result():
    query = LaggedQuery(start=0, end=96, window=32, step=32, max_lag=2,
                        threshold=1e-05)
    corr = np.zeros((NUM_SERIES, NUM_SERIES))
    corr[np.triu_indices(NUM_SERIES, k=1)] = AWKWARD + [0.25, -0.5]
    lags = np.arange(NUM_SERIES * NUM_SERIES).reshape(NUM_SERIES, NUM_SERIES) % 3
    windows = [LagMatrices(k, corr + k, lags) for k in range(query.num_windows)]
    return LaggedSeriesResult(query, windows)


RESULTS = {
    "threshold-without-ids": lambda: _threshold_result(None),
    "threshold-with-ids": lambda: _threshold_result(["a", "b\"quoted\"", "é", "d"]),
    "topk": _topk_result,
    "lagged": _lagged_result,
}


@pytest.mark.parametrize("include_edges", [False, True], ids=["windows", "edges"])
@pytest.mark.parametrize("make", list(RESULTS.values()), ids=list(RESULTS))
def test_bytes_match_the_stdlib_encoding(make, include_edges):
    result = make()
    assert encode_result(HEAD, result, include_edges) == _reference(
        HEAD, result, include_edges
    )


def test_awkward_values_keep_their_json_spelling():
    body = encode_result(HEAD, _threshold_result(None), include_edges=True)
    text = body.decode("ascii")
    assert '"values": [5e-324, -0.0, 1e-05, 1e+16]' in text
    assert "[0, 0, 1, 5e-324, 0], [0, 0, 3, -0.0, 0]" in text
    edges = json.loads(body)["edges"]
    assert [edge[3] for edge in edges[:4]] == AWKWARD
    assert str(edges[1][3]) == "-0.0"


def test_results_without_a_wire_kind_are_refused():
    with pytest.raises(ServiceError, match="no wire kind"):
        encode_result(HEAD, object(), include_edges=True)


# ---------------------------------------------------------------------------
# Every serving path sends the same bytes
# ---------------------------------------------------------------------------

BASIC = 16
LENGTH = 256
WINDOWED = {"start": 0, "end": LENGTH, "window": 64, "step": 32}


def _pool_available() -> bool:
    try:
        WorkerPool(1, WorkerConfig(basic_window_size=BASIC)).close()
    except ServiceError:
        return False
    return True


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    rng = np.random.default_rng(31)
    base = rng.standard_normal(LENGTH)
    values = np.stack([base + 0.6 * rng.standard_normal(LENGTH) for _ in range(6)])
    store = ChunkStore(6, chunk_columns=64)
    store.append(values)
    catalog = Catalog(tmp_path_factory.mktemp("catalog"))
    catalog.add_dataset("demo", store)
    return catalog


def _without_timings(document):
    """A threshold document minus the fields that carry wall-clock seconds."""
    return {k: v for k, v in document.items() if k not in ("describe", "stats", "batch")}


def _batched_bodies(service, thresholds):
    """Answer one request per threshold as a single batch; bodies by threshold."""
    runtime = service._runtime("demo")
    bodies = {}

    def ask(threshold):
        request = {"mode": "threshold", **WINDOWED, "threshold": threshold,
                   "include_edges": True}
        bodies[threshold] = service.query("demo", request)

    askers = [threading.Thread(target=ask, args=(t,)) for t in thresholds]
    # The leader fixes the floor only once it holds the runtime lock, so
    # holding it here keeps the batch open until every asker has joined.
    with runtime.lock:
        for asker in askers:
            asker.start()
        deadline = time.monotonic() + 10
        while True:
            with runtime.batches_lock:
                joined = sum(len(b.members) for b in runtime.batches.values())
            if joined == len(thresholds):
                break
            assert time.monotonic() < deadline, f"only {joined} joined"
            time.sleep(0.005)
    for asker in askers:
        asker.join(timeout=30)
    assert runtime.counters["batched"] == len(thresholds) - 1
    return bodies


@pytest.mark.skipif(not _pool_available(), reason="fork worker pool unavailable")
def test_pooled_pool_less_and_batched_bodies_agree(catalog):
    topk = {"mode": "topk", **WINDOWED, "k": 3, "include_edges": True}
    threshold = {"mode": "threshold", **WINDOWED, "threshold": 0.3,
                 "include_edges": True}
    with CorrelationService(catalog, basic_window_size=BASIC,
                            service_workers=1) as pooled, \
            CorrelationService(catalog, basic_window_size=BASIC) as alone:
        # Top-k documents carry no timings: the worker's bytes and the
        # parent's bytes are the same bytes.
        assert pooled.query("demo", dict(topk)) == alone.query("demo", dict(topk))

        bodies = [
            pooled.query("demo", dict(threshold)),
            alone.query("demo", dict(threshold)),
            _batched_bodies(pooled, (0.3, 0.6))[0.6],
            _batched_bodies(alone, (0.3, 0.6))[0.6],
        ]
        expected_member = json.loads(alone.query("demo", {**threshold, "threshold": 0.6}))
    documents = [json.loads(body) for body in bodies]
    for body, document in zip(bodies, documents):
        # Whichever process encoded it, a body is the stdlib's encoding of
        # its own document.
        assert body == json.dumps(document).encode()
        assert document["edges"] == [list(e) for e in result_from_wire(document).to_edges()]
    assert _without_timings(documents[0]) == _without_timings(documents[1])
    assert documents[2]["batch"] == documents[3]["batch"] == {
        "floor_threshold": 0.3, "members": 2,
    }
    assert _without_timings(documents[2]) == _without_timings(documents[3])
    assert _without_timings(documents[2]) == _without_timings(expected_member)
