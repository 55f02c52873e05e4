"""Concurrency regression: hammer the observable surface during load.

Extends the RPR005 lock-discipline coverage with a behavioural check: while
query threads (mixed thresholds, so batching and coalescing both fire) and an
append writer run against a pooled server, sibling threads hammer
``GET /metrics`` and ``GET /datasets/{name}`` over real HTTP and record every
snapshot.  The assertions pin what the runtime lock is supposed to buy:

* no torn reads — every snapshot satisfies the counter invariant
  ``queries >= coalesced + batched`` (requests answered without their own
  scan can never exceed requests answered), and every counter is
  non-negative;
* counters are **monotonic** across one reader's successive snapshots;
* every completed query response stays bit-identical to the precomputed
  expectation for its threshold — appends only extend the series, so the
  fixed ``[0, LENGTH)`` range must be unaffected by the concurrent writer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import CorrelationSession, ThresholdQuery
from repro.service import CorrelationServer, CorrelationService, ServiceClient
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

NUM_SERIES = 8
LENGTH = 256
BASIC = 16

THRESHOLDS = (0.35, 0.5, 0.65)
QUERY_THREADS = 6
QUERIES_PER_THREAD = 6
APPEND_BLOCKS = 4

#: Counters whose values must never decrease across one reader's snapshots.
MONOTONIC = ("queries", "executed", "coalesced", "batched", "appended_columns")


def _query_at(threshold: float) -> ThresholdQuery:
    return ThresholdQuery(
        start=0, end=LENGTH, window=64, step=32, threshold=threshold
    )


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(20260808)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.4 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture(scope="module")
def expected_edges(values):
    session = CorrelationSession(
        TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
        basic_window_size=BASIC,
    )
    return {t: session.run(_query_at(t)).to_edges() for t in THRESHOLDS}


@pytest.fixture(scope="module")
def client(tmp_path_factory, values):
    store = ChunkStore(NUM_SERIES, chunk_columns=64)
    store.append(values)
    catalog = Catalog(tmp_path_factory.mktemp("hammer-catalog"))
    catalog.add_dataset("hammer", store, description="concurrency dataset")
    service = CorrelationService(
        catalog,
        basic_window_size=BASIC,
        service_workers=2,
        batch_window_seconds=0.002,
    )
    with CorrelationServer(service) as server:
        yield ServiceClient(server.url)


def test_counters_consistent_under_concurrent_load(client, expected_edges):
    # Warm-up: load the dataset runtime so metrics list it from snapshot one.
    warmup = client.query("hammer", _query_at(THRESHOLDS[0]))
    assert warmup.to_edges() == expected_edges[THRESHOLDS[0]]

    stop = threading.Event()
    errors = []
    snapshots_per_reader = []

    def hammer_metrics():
        mine = []
        snapshots_per_reader.append(mine)
        while not stop.is_set():
            try:
                document = client.metrics()
                mine.append(document["datasets"]["hammer"])
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)
                return

    def hammer_dataset():
        mine = []
        snapshots_per_reader.append(mine)
        while not stop.is_set():
            try:
                mine.append(client.dataset("hammer")["stats"])
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)
                return

    def run_queries(offset: int):
        try:
            for i in range(QUERIES_PER_THREAD):
                threshold = THRESHOLDS[(offset + i) % len(THRESHOLDS)]
                result = client.query("hammer", _query_at(threshold))
                if result.to_edges() != expected_edges[threshold]:
                    errors.append(
                        AssertionError(
                            f"response for threshold {threshold} diverged"
                        )
                    )
        except Exception as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    def run_appends():
        rng = np.random.default_rng(99)
        try:
            for _ in range(APPEND_BLOCKS):
                client.append(
                    "hammer", rng.standard_normal((NUM_SERIES, BASIC))
                )
        except Exception as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    readers = [threading.Thread(target=hammer_metrics) for _ in range(2)]
    readers += [threading.Thread(target=hammer_dataset) for _ in range(2)]
    workers = [
        threading.Thread(target=run_queries, args=(offset,))
        for offset in range(QUERY_THREADS)
    ]
    workers.append(threading.Thread(target=run_appends))
    for thread in readers + workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=120)
    stop.set()
    for thread in readers:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in readers + workers)
    assert errors == []

    # One final authoritative snapshot, after quiescence.
    final = client.metrics()["datasets"]["hammer"]
    snapshots_per_reader.append([final])

    total_snapshots = 0
    for snapshots in snapshots_per_reader:
        previous = None
        for stats in snapshots:
            total_snapshots += 1
            # No torn reads: each snapshot is internally consistent.
            assert stats["queries"] >= stats["coalesced"] + stats["batched"]
            for counter in MONOTONIC:
                assert stats[counter] >= 0
            assert stats["admission"]["queue_depth"] >= 0
            assert stats["admission"]["shed"] == 0  # no queue limit configured
            # Monotonic within one reader's timeline.
            if previous is not None:
                for counter in MONOTONIC:
                    assert stats[counter] >= previous[counter], counter
            previous = stats
    assert total_snapshots > len(snapshots_per_reader)  # readers actually read

    # Quiescent accounting: every answered request was exactly one of
    # executed-scan leader, coalesced duplicate, or batched derivation.
    assert final["queries"] == QUERY_THREADS * QUERIES_PER_THREAD + 1  # + warm-up
    assert final["executed"] + final["coalesced"] + final["batched"] == final["queries"]
    assert final["appended_columns"] == APPEND_BLOCKS * BASIC


def test_metrics_document_shape(client):
    document = client.metrics()
    service = document["service"]
    assert service["service_workers"] == 2
    assert service["engine"]
    pool = document["worker_pool"]  # null where fork is unavailable
    stats = document["datasets"]["hammer"]
    assert {"queries", "executed", "coalesced", "batched"} <= set(stats)
    assert {"queue_depth", "shed"} <= set(stats["admission"])
    if pool is not None:
        assert pool["size"] == 2
        assert stats["segments"]["exports"] >= 1
