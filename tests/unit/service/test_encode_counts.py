"""The encoder counts the floats it renders and those ``float.__repr__`` spells.

``encode_result`` writes a body's floats in numpy passes and spells one at
a time only the values its exact test cannot certify (zeros, subnormals,
non-finite values, powers of two, magnitudes outside ``[1e-6, 1e17)``).
The service sums both counts per dataset in ``GET /metrics``, from its own
encodes and from each pooled worker's reply.  No clocks: these are counts.
"""

import json

import numpy as np
import pytest

from repro.api import ThresholdQuery, TopKQuery
from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.core.topk import TopKResult, TopKWindow
from repro.exceptions import ServiceError
from repro.service import CorrelationService
from repro.service.wire import encode_result
from repro.service.workers import WorkerConfig, WorkerPool
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore

#: The values of ``test_encode_result.py``: the smallest subnormal and a
#: signed zero take the fallback; 1e-05 and 1e16 do not.
AWKWARD = [5e-324, -0.0, 1e-05, 1e16]
HEAD = {"dataset": "demo", "plan": "plan"}

NUM_SERIES = 128
LENGTH = 1200
BASIC = 24
QUERY = {"mode": "threshold", "start": 0, "end": LENGTH, "window": 720, "step": 24,
         "threshold": 0.6, "include_edges": True}


def test_awkward_values_count_their_fallbacks():
    query = ThresholdQuery(start=0, end=64, window=32, step=32, threshold=-1.0)
    result = CorrelationSeriesResult(query, [
        ThresholdedMatrix(4, [0, 0, 1, 2], [1, 3, 2, 3], AWKWARD),
        ThresholdedMatrix(4, [0, 1], [1, 2], [0.1, -0.75]),
    ])
    counts = {}
    encode_result(HEAD, result, include_edges=True, counts=counts)
    # Edge rows reuse the window tokens: every value counts once.
    assert counts == {"rendered_floats": 6, "fallback_floats": 2}

    topk = TopKResult(
        query=TopKQuery(start=0, end=32, window=32, step=32, k=4),
        k=4, absolute=False,
        windows=[TopKWindow(0, [0, 0, 1, 2], [1, 3, 2, 3], AWKWARD[::-1])],
    )
    encode_result(HEAD, topk, include_edges=False, counts=counts)
    assert counts == {"rendered_floats": 10, "fallback_floats": 4}


def _regional(seed):
    """128 series in eight regions of sixteen sharing a regional factor and
    one global factor, the D128 shape: many pairs correlate above 0.6."""
    rng = np.random.default_rng(seed)
    region = np.arange(NUM_SERIES) % 8
    factors = rng.standard_normal((8, LENGTH)).cumsum(axis=1) * 0.2
    common = rng.standard_normal(LENGTH).cumsum() * 0.1
    return (
        factors[region]
        + 0.5 * common
        + rng.standard_normal((NUM_SERIES, LENGTH))
    )


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    store = ChunkStore(NUM_SERIES, chunk_columns=240)
    store.append(_regional(7))
    catalog = Catalog(tmp_path_factory.mktemp("catalog"))
    catalog.add_dataset("d128", store)
    return catalog


def _pool_available() -> bool:
    try:
        WorkerPool(1, WorkerConfig(basic_window_size=BASIC)).close()
    except ServiceError:
        return False
    return True


def _served_counts(service):
    body = service.query("d128", dict(QUERY))
    document = json.loads(body)
    values = sum(len(window["values"]) for window in document["windows"])
    stats = service.metrics()["datasets"]["d128"]
    return values, stats["rendered_floats"], stats["fallback_floats"]


def test_a_served_d128_answer_takes_the_vectorised_path(catalog):
    with CorrelationService(catalog, basic_window_size=BASIC) as service:
        values, rendered, fallback = _served_counts(service)
    assert values > 1000
    assert rendered == values
    assert fallback <= 0.01 * rendered


@pytest.mark.skipif(not _pool_available(), reason="fork worker pool unavailable")
def test_a_pooled_worker_reports_its_counts(catalog):
    with CorrelationService(catalog, basic_window_size=BASIC, service_workers=1) as service:
        values, rendered, fallback = _served_counts(service)
    assert rendered == values > 1000
    assert fallback <= 0.01 * rendered
