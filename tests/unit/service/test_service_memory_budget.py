"""Service-level tests: memory-budgeted execution is invisible on the wire."""

import json

import numpy as np
import pytest

from repro.service.service import CorrelationService
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore

N, L = 6, 512


@pytest.fixture
def catalog(tmp_path):
    rng = np.random.default_rng(77)
    base = rng.standard_normal(L)
    values = np.stack([base + 0.4 * rng.standard_normal(L) for _ in range(N)])
    store = ChunkStore(num_series=N, chunk_columns=128)
    store.append(values)
    catalog = Catalog(tmp_path / "catalog")
    catalog.add_dataset("demo", store)
    return catalog


REQUEST = {
    "mode": "threshold",
    "start": 0,
    "end": L,
    "window": 128,
    "step": 64,
    "threshold": 0.5,
}


def test_budgeted_service_answers_identically(catalog):
    dense = CorrelationService(catalog, basic_window_size=16)
    budgeted = CorrelationService(
        catalog, basic_window_size=16, memory_budget=N * L * 8 // 4
    )
    dense_doc = json.loads(dense.query("demo", dict(REQUEST)))
    tiled_doc = json.loads(budgeted.query("demo", dict(REQUEST)))
    assert "build=tiled" in tiled_doc["plan"]
    assert "build=tiled" not in dense_doc["plan"]
    # Identical wire payload apart from the plan line: tiled execution is
    # invisible to repro.result/v1 clients.
    assert tiled_doc["windows"] == dense_doc["windows"]
    assert tiled_doc["num_windows"] == dense_doc["num_windows"]


def test_budget_covering_dataset_stays_dense(catalog):
    service = CorrelationService(catalog, basic_window_size=16, memory_budget=10**9)
    document = json.loads(service.query("demo", dict(REQUEST)))
    assert "build=tiled" not in document["plan"]


def test_budgeted_query_path_never_materializes(catalog):
    """RPR002 regression: the sketch-only service path must stay lazy.

    A budgeted runtime serves queries off a :class:`ChunkBackedMatrix`;
    if any planner / stale-guard / session step dereferenced ``.values``,
    the lazy matrix would silently densify and the memory budget would be
    fiction.  Covers the initial query, an append (which rebuilds the
    matrix view), and the re-query over the grown data.
    """
    from repro.core.tiled import ChunkBackedMatrix

    service = CorrelationService(
        catalog, basic_window_size=16, memory_budget=N * L * 8 // 4
    )
    service.query("demo", dict(REQUEST))
    runtime = service._runtime("demo")
    with runtime.lock:
        matrix = runtime.matrix
    assert isinstance(matrix, ChunkBackedMatrix)
    assert not matrix.materialized

    steps = [[0.1 * i] * N for i in range(16)]
    service.append("demo", {"columns": steps})
    service.query("demo", {**REQUEST, "end": L + 16})
    with runtime.lock:
        regrown = runtime.matrix
    assert isinstance(regrown, ChunkBackedMatrix)
    assert not regrown.materialized
    assert not matrix.materialized


def test_watch_on_budgeted_runtime_stays_out_of_core(catalog, monkeypatch):
    """A standing query must not densify a budgeted runtime.

    Registration used to catch a watch up by reading the whole store densely
    (``store.read_all()``) into a private monitor; it now advances over the
    shared, tiled-built sketch, so neither the lazy matrix nor the store is
    ever materialized — at registration or on the appends that follow.
    """
    from repro.core.tiled import ChunkBackedMatrix

    def dense_read(self):
        raise AssertionError("a watch read the whole store densely")

    monkeypatch.setattr(ChunkStore, "read_all", dense_read)
    service = CorrelationService(
        catalog, basic_window_size=16, memory_budget=N * L * 8 // 4
    )
    watch = service.watch("demo", dict(REQUEST))
    assert watch["emitted_windows"] == (L - 128) // 64 + 1
    response = service.append("demo", {"columns": [[0.1 * i] * N for i in range(64)]})
    (state,) = response["watches"]
    assert [w["index"] for w in state["windows"]] == [watch["emitted_windows"]]

    runtime = service._runtime("demo")
    with runtime.lock:
        matrix = runtime.matrix
    assert isinstance(matrix, ChunkBackedMatrix)
    assert not matrix.materialized
