"""A sharded scan inside a pooled service answers like the pool-less one.

The service's :class:`~repro.service.workers.WorkerPool` runs scans in
daemonic forked workers, which may not start child processes of their own.
A request carrying ``"workers": 2`` over enough pairs to clear the planner's
sharding floor therefore has to fan out on threads inside the worker; the
edges must match the pool-less service's, which plans the same sharded scan
in the server process.
"""

import json

import numpy as np
import pytest

from repro.exceptions import ServiceError
from repro.service import CorrelationService, result_from_wire
from repro.service.workers import WorkerConfig, WorkerPool
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore

# 4560 pairs (over DEFAULT_PARALLEL_MIN_PAIRS) times 121 windows.
NUM_SERIES = 96
LENGTH = 1024
BASIC = 8

WINDOWED = {"start": 0, "end": LENGTH, "window": 64, "step": 8}
REQUESTS = {
    "threshold": {"mode": "threshold", **WINDOWED, "threshold": 0.6},
    "topk": {"mode": "topk", **WINDOWED, "k": 10},
}


def _pool_available() -> bool:
    try:
        WorkerPool(1, WorkerConfig(basic_window_size=BASIC)).close()
    except ServiceError:
        return False
    return True


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    rng = np.random.default_rng(30)
    groups = rng.standard_normal((4, LENGTH)).cumsum(axis=1)
    values = groups[np.arange(NUM_SERIES) % 4] + 2.0 * rng.standard_normal(
        (NUM_SERIES, LENGTH)
    )
    store = ChunkStore(NUM_SERIES, chunk_columns=256)
    store.append(values)
    catalog = Catalog(tmp_path_factory.mktemp("catalog"))
    catalog.add_dataset("demo", store)
    return catalog


def _answer(catalog, request, **options):
    with CorrelationService(catalog, basic_window_size=BASIC, **options) as service:
        document = json.loads(service.query(
            "demo", {**request, "workers": 2, "include_edges": True}
        ))
    return document["plan"], result_from_wire(document).to_edges()


@pytest.mark.skipif(not _pool_available(), reason="fork worker pool unavailable")
@pytest.mark.parametrize("mode", sorted(REQUESTS))
def test_pooled_sharded_scan_matches_the_pool_less_service(catalog, mode):
    plan, edges = _answer(catalog, REQUESTS[mode])
    pooled_plan, pooled_edges = _answer(catalog, REQUESTS[mode], service_workers=2)
    assert "exec=sharded(workers=2)" in plan
    assert pooled_plan == plan
    assert edges
    assert pooled_edges == edges
