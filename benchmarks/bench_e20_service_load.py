"""E20 — multi-process service under load: throughput, batching, shedding.

A seeded load generator drives a real HTTP :class:`CorrelationServer` (the
PR-10 multi-process architecture: forked workers over shared mmap segments,
compatible-query batching, bounded admission) through four phases:

* **Throughput scaling** — the same seeded request mix replayed against a
  1-worker and a ``MAX_WORKERS``-worker server.  Floor:
  :func:`speedup_floor` (2x at >= 4 workers, 1.3x at 2–3), asserted only
  when the machine exposes the cores and the pool actually forked (hosts
  without fork serve pool-less and skip the floor, never the correctness
  checks).
* **Tail latency** — the loaded run's p99 must stay under
  ``P99_CEILING_FACTOR`` x the warm unloaded single-request latency; a
  pool that serializes or convoys blows this ceiling long before the
  throughput floor moves.
* **Batching burst** — barrier-started bursts of compatible threshold
  queries (same grid, distinct thresholds) against a server with a small
  group-commit window must coalesce: at least half of each burst answered
  without its own scan.
* **Load shedding** — a 1-worker server with a bounded admission queue
  under deliberate overload: every 429 carries ``Retry-After``, every 200
  stays bit-identical, and the shed counter matches the rejections the
  clients saw.  Zero incorrect responses, shed or served.

Every completed response in every phase is verified bit-identical to a
precomputed in-process expectation — the load generator is also the
correctness oracle.  Process mode adds a memory phase: per-worker anonymous
RSS growth (``RssAnon`` — file-backed segment pages excluded by
construction) must stay within ``RSS_GROWTH_FRACTION`` of the shared sketch
footprint plus a fixed allocator allowance.

Results are recorded in ``BENCH_10.json`` at the repo root (rows keyed by
phase, compare_bench-compatible).  ``REPRO_BENCH_SCALE`` scales the dataset
and request counts; ``REPRO_BENCH_WORKERS`` caps the pool (CI smoke runs
scale 0.1 at 2 workers inside its 60-second budget).
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import CorrelationSession, ThresholdQuery
from repro.exceptions import ServiceError
from repro.parallel import available_workers
from repro.service import CorrelationServer, CorrelationService, ServiceClient
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

from _bench_common import BENCH_SCALE, print_experiment_table

BENCH_RECORD = Path(__file__).resolve().parent.parent / "BENCH_10.json"

#: Top of the worker ladder; the speedup floor applies to this count.
MAX_WORKERS = max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "4")))

SEED = 20230810
BASIC = 16
WINDOW = 16 * BASIC
STEP = 4 * BASIC
#: Distinct query shapes (shifted ranges -> distinct batch keys), so the
#: throughput phase measures scan parallelism, not batching.
NUM_SHAPES = 8
THRESHOLD = 0.72

NUM_SERIES = max(16, int(round(64 * BENCH_SCALE**0.5)))
LENGTH = max(2 * WINDOW + NUM_SHAPES * STEP, int(4096 * BENCH_SCALE))
REQUESTS_PER_CLIENT = max(3, int(round(16 * BENCH_SCALE)))
CLIENTS = 2 * MAX_WORKERS

BURST_SIZE = 6
BURST_ROUNDS = 3
BURST_THRESHOLDS = [0.45 + 0.06 * i for i in range(BURST_SIZE)]

P99_CEILING_FACTOR = 30.0
RSS_GROWTH_FRACTION = 0.25
#: Fixed allowance on top of the sketch-relative bound: allocator arenas
#: and interpreter noise that exist at any workload size.
RSS_ALLOWANCE_BYTES = 8 * 1024 * 1024

_rows = []
_record_meta = {}


def speedup_floor(workers: int) -> float:
    """Minimum loaded-throughput speedup of N workers over 1."""
    return 2.0 if workers >= 4 else 1.3


def _query_shape(index: int) -> ThresholdQuery:
    start = (index % NUM_SHAPES) * STEP
    span = LENGTH - NUM_SHAPES * STEP
    return ThresholdQuery(
        start=start, end=start + span, window=WINDOW, step=STEP,
        threshold=THRESHOLD,
    )


def _burst_query(threshold: float) -> ThresholdQuery:
    return ThresholdQuery(
        start=0, end=LENGTH, window=WINDOW, step=STEP, threshold=threshold
    )


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(SEED)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.45 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture(scope="module")
def catalog(tmp_path_factory, values):
    store = ChunkStore(NUM_SERIES, chunk_columns=256)
    store.append(values)
    catalog = Catalog(tmp_path_factory.mktemp("e20-catalog"))
    catalog.add_dataset("load", store, description="E20 load dataset")
    return catalog


@pytest.fixture(scope="module")
def expected(values):
    """Edge-set oracle for every shape and burst threshold (seeded, serial)."""
    session = CorrelationSession(
        TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
        basic_window_size=BASIC,
    )
    shapes = {i: session.run(_query_shape(i)).to_edges() for i in range(NUM_SHAPES)}
    bursts = {
        t: session.run(_burst_query(t)).to_edges() for t in BURST_THRESHOLDS
    }
    return {"shapes": shapes, "bursts": bursts}


def _server(catalog, **kwargs):
    service = CorrelationService(catalog, basic_window_size=BASIC, **kwargs)
    return CorrelationServer(service)


def _drive_load(url, expected_shapes, clients, requests_per_client):
    """Replay the seeded request mix from ``clients`` threads.

    Returns ``(wall_seconds, latencies, mismatches, errors)``; every
    response is checked against the oracle inline, so a wrong answer under
    concurrency is a recorded mismatch, not a silent pass.
    """
    latencies = []
    mismatches = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def run_client(client_index):
        client = ServiceClient(url, timeout=120)
        order = np.random.default_rng(SEED + client_index).permutation(
            requests_per_client * NUM_SHAPES
        )
        barrier.wait()
        for request_index in order[:requests_per_client]:
            shape = int(request_index) % NUM_SHAPES
            started = time.perf_counter()
            try:
                result = client.query("load", _query_shape(shape))
            except Exception as error:  # noqa: BLE001 — recorded, not raised
                with lock:
                    errors.append(error)
                continue
            elapsed = time.perf_counter() - started
            with lock:
                latencies.append(elapsed)
                if result.to_edges() != expected_shapes[shape]:
                    mismatches.append(shape)

    threads = [
        threading.Thread(target=run_client, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join(timeout=600)
    wall = time.perf_counter() - started
    return wall, latencies, mismatches, errors


def _write_record():
    BENCH_RECORD.write_text(json.dumps({
        "bench": "E20 service load (multi-process workers, batching, shedding)",
        "rows": _rows,
        **_record_meta,
        "workloads": (
            f"N={NUM_SERIES} L={LENGTH} b={BASIC} window={WINDOW} "
            f"step={STEP} shapes={NUM_SHAPES} threshold={THRESHOLD}; "
            f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests; "
            f"bursts {BURST_ROUNDS}x{BURST_SIZE}"
        ),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpus_usable": available_workers(),
            "REPRO_BENCH_SCALE": BENCH_SCALE,
            "REPRO_BENCH_WORKERS": MAX_WORKERS,
        },
    }, indent=2) + "\n")


def test_e20_throughput_and_tail_latency(catalog, expected):
    """The headline: loaded throughput at 1 vs MAX_WORKERS service workers."""
    measured = {}
    pooled = {}
    for workers in dict.fromkeys([1, MAX_WORKERS]):
        with _server(catalog, service_workers=workers) as server:
            client = ServiceClient(server.url, timeout=120)
            # Warm every shape once (sketch build + segment export), then
            # take the unloaded single-request latency as the p99 unit.
            for shape in range(NUM_SHAPES):
                result = client.query("load", _query_shape(shape))
                assert result.to_edges() == expected["shapes"][shape]
            warm = []
            for _ in range(3):
                started = time.perf_counter()
                client.query("load", _query_shape(0))
                warm.append(time.perf_counter() - started)
            wall, latencies, mismatches, errors = _drive_load(
                server.url, expected["shapes"], CLIENTS, REQUESTS_PER_CLIENT
            )
            pooled[workers] = client.metrics()["worker_pool"] is not None
        assert errors == [], f"load run surfaced transport errors: {errors[:3]}"
        assert mismatches == [], (
            f"{len(mismatches)} responses diverged from the oracle"
        )
        assert len(latencies) == CLIENTS * REQUESTS_PER_CLIENT
        p99 = float(np.quantile(latencies, 0.99))
        measured[workers] = {
            "wall_seconds": wall,
            "throughput_qps": len(latencies) / wall,
            "p50_seconds": float(np.quantile(latencies, 0.5)),
            "p99_seconds": p99,
            "warm_seconds": float(np.median(warm)),
        }
        # Identity fields must be non-numeric for compare_bench pairing.
        _rows.append({
            "phase": f"throughput-w{workers}",
            **{k: round(v, 5) for k, v in measured[workers].items()},
        })

    speedup = (
        measured[MAX_WORKERS]["throughput_qps"] / measured[1]["throughput_qps"]
        if MAX_WORKERS > 1 else 1.0
    )
    _record_meta["throughput"] = {
        "speedup": round(speedup, 4),
        "floor": speedup_floor(MAX_WORKERS),
        "pooled": pooled[MAX_WORKERS],
        "p99_ceiling_factor": P99_CEILING_FACTOR,
    }
    _write_record()

    class _Table:
        experiment_id = "E20"
        notes = (
            f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, "
            f"{NUM_SHAPES} shapes; speedup {speedup:.2f}x "
            f"(worker pool {'forked' if pooled[MAX_WORKERS] else 'unavailable'})"
        )
        headers = ["phase", "wall_seconds", "throughput_qps",
                   "p50_seconds", "p99_seconds"]

        def table(self):
            header = " | ".join(self.headers)
            lines = [header, "-" * len(header)]
            for row in _rows:
                lines.append(" | ".join(str(row.get(h, "")) for h in self.headers))
            return "\n".join(lines)

    print_experiment_table(_Table())

    # Tail ceiling holds pool-less too: convoying shows up in process as well.
    loaded = measured[MAX_WORKERS]
    assert loaded["p99_seconds"] <= P99_CEILING_FACTOR * max(
        loaded["warm_seconds"], 1e-3
    ), (
        f"p99 {loaded['p99_seconds']:.3f}s exceeds "
        f"{P99_CEILING_FACTOR}x warm latency {loaded['warm_seconds']:.3f}s"
    )

    if MAX_WORKERS < 2:
        pytest.skip("REPRO_BENCH_WORKERS=1: nothing to scale")
    if not pooled[MAX_WORKERS]:
        pytest.skip("no fork on this host, service ran pool-less: no process scaling")
    usable = available_workers()
    if usable < MAX_WORKERS:
        pytest.skip(
            f"speedup floor needs {MAX_WORKERS} usable cores, "
            f"this machine exposes {usable}"
        )
    assert speedup >= speedup_floor(MAX_WORKERS), (
        f"{MAX_WORKERS}-worker service reached only {speedup:.2f}x the "
        f"1-worker throughput (floor {speedup_floor(MAX_WORKERS)}x)"
    )


def test_e20_batching_burst(catalog, expected):
    """Barrier bursts of compatible thresholds must coalesce into few scans."""
    answered = 0
    with _server(
        catalog, service_workers=min(2, MAX_WORKERS), batch_window_seconds=0.02
    ) as server:
        client = ServiceClient(server.url, timeout=120)
        # Warm the floor threshold's sketch so bursts measure batching,
        # not the first build.
        client.query("load", _burst_query(BURST_THRESHOLDS[0]))
        answered += 1
        mismatches = []
        for _ in range(BURST_ROUNDS):
            barrier = threading.Barrier(BURST_SIZE)
            lock = threading.Lock()

            def fire(threshold):
                barrier.wait()
                result = client.query("load", _burst_query(threshold))
                with lock:
                    if result.to_edges() != expected["bursts"][threshold]:
                        mismatches.append(threshold)

            threads = [
                threading.Thread(target=fire, args=(t,))
                for t in BURST_THRESHOLDS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            answered += BURST_SIZE
        stats = client.metrics()["datasets"]["load"]
    assert mismatches == []
    assert stats["queries"] == answered
    saved = stats["coalesced"] + stats["batched"]
    # At least half of each burst must ride another member's scan.
    floor = BURST_ROUNDS * (BURST_SIZE // 2)
    _rows.append({
        "phase": "batching",
        "burst_queries": answered - 1, "scans_executed": stats["executed"],
        "coalesce_rate": round(saved / (answered - 1), 4),
    })
    _record_meta["batching"] = {"saved": saved, "floor": floor}
    _write_record()
    assert saved >= floor, (
        f"bursts coalesced only {saved} of {answered - 1} queries "
        f"(floor {floor})"
    )


def test_e20_load_shedding(catalog, expected):
    """Bounded admission under overload: clean 429s, bit-identical 200s."""
    overload_clients = 8
    per_client = 3
    served = []
    shed_errors = []
    other_errors = []
    lock = threading.Lock()
    with _server(
        catalog, service_workers=1, admission_queue_limit=2,
        retry_after_seconds=0.5,
    ) as server:
        url = server.url
        barrier = threading.Barrier(overload_clients)

        def hammer(client_index):
            client = ServiceClient(url, timeout=120)
            barrier.wait()
            for i in range(per_client):
                shape = (client_index + i) % NUM_SHAPES
                try:
                    result = client.query("load", _query_shape(shape))
                except ServiceError as error:
                    with lock:
                        (shed_errors if error.status == 429
                         else other_errors).append(error)
                    continue
                with lock:
                    served.append(
                        (shape, result.to_edges() == expected["shapes"][shape])
                    )

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(overload_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        client = ServiceClient(url, timeout=120)
        stats = client.metrics()["datasets"]["load"]

    assert other_errors == [], f"unexpected failures: {other_errors[:3]}"
    # Zero incorrect responses: every request was either shed cleanly or
    # answered bit-identically.
    assert all(ok for _, ok in served)
    assert len(served) + len(shed_errors) == overload_clients * per_client
    for error in shed_errors:
        assert error.retry_after == 0.5  # the hint survived the wire
    assert stats["admission"]["shed"] == len(shed_errors)
    assert stats["queries"] == len(served)
    _rows.append({
        "phase": "shedding",
        "requests": overload_clients * per_client,
        "served": len(served), "shed": len(shed_errors),
    })
    _record_meta["shedding"] = {
        "queue_limit": 2, "shed": len(shed_errors), "served": len(served),
    }
    _write_record()
    # Overload was real: a 1-worker queue of 2 cannot absorb 8 clients.
    assert shed_errors, "overload produced no shed responses"


def test_e20_worker_rss_stays_shared(catalog, expected):
    """Per-worker anonymous RSS growth stays a fraction of the sketch size."""
    with _server(catalog, service_workers=MAX_WORKERS) as server:
        service = server.service
        client = ServiceClient(server.url, timeout=120)
        if client.metrics()["worker_pool"] is None:
            pytest.skip("no fork on this host: no per-worker RSS to measure")
        wall, latencies, mismatches, errors = _drive_load(
            server.url, expected["shapes"], CLIENTS, REQUESTS_PER_CLIENT
        )
        assert errors == [] and mismatches == []
        samples = service._pool.worker_rss()
        runtime = service._runtime("load")
        with runtime.lock:
            segments = runtime.segments.describe()
        assert segments["exports"] >= 1

    # The shared footprint the segment carries (count ~= LENGTH / BASIC).
    count = LENGTH // BASIC
    footprint = 8 * (
        NUM_SERIES * LENGTH                    # values
        + 2 * NUM_SERIES * count               # per-series sums
        + (3 * count + 1) * NUM_SERIES**2      # pairwise + prefix tensors
    )
    bound = RSS_GROWTH_FRACTION * footprint + RSS_ALLOWANCE_BYTES
    growths = []
    for sample in samples:
        if sample["spawn"] is None or sample["now"] is None:
            pytest.skip("RssAnon unavailable on this platform")
        growths.append(sample["now"] - sample["spawn"])
    _rows.append({
        "phase": "worker-rss",
        "sketch_footprint_bytes": footprint,
        "max_growth_bytes": max(growths),
    })
    _record_meta["worker_rss"] = {
        "growth_fraction": RSS_GROWTH_FRACTION,
        "allowance_bytes": RSS_ALLOWANCE_BYTES,
        "growths": growths,
    }
    _write_record()
    assert max(growths) <= bound, (
        f"worker RssAnon grew {max(growths)} bytes, bound {bound:.0f} "
        f"(sketch footprint {footprint}); the segment is not being shared"
    )
