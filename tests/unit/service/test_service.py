"""Unit tests for the service domain layer (no sockets involved).

Covers the warm-session/bit-identity contract, in-flight coalescing and
threshold batching, load shedding, lazy materialization of persisted stats
indexes, the append/standing-query path and the error surface.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.api import CorrelationSession, ThresholdQuery, TopKQuery
from repro.cli import main
from repro.exceptions import ExperimentError, ServiceError
from repro.service import CorrelationService, result_from_wire
from repro.service.service import DatasetRuntime
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.storage.stats_index import StatsIndex
from repro.timeseries.matrix import TimeSeriesMatrix

NUM_SERIES = 6
LENGTH = 256
BASIC = 16


@pytest.fixture
def values():
    rng = np.random.default_rng(99)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.3 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture
def catalog(tmp_path, values):
    store = ChunkStore(NUM_SERIES, chunk_columns=64)
    store.append(values)
    catalog = Catalog(tmp_path)
    catalog.add_dataset("demo", store, description="unit-test data")
    return catalog


@pytest.fixture
def service(catalog):
    return CorrelationService(catalog, basic_window_size=BASIC)


THRESHOLD_REQUEST = {
    "mode": "threshold", "start": 0, "end": LENGTH, "window": 64, "step": 32,
    "threshold": 0.5,
}


class TestInventory:
    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["datasets"] == 1

    def test_datasets_report_load_state(self, service):
        (before,) = service.datasets()
        assert before["name"] == "demo" and not before["loaded"]
        service.query("demo", dict(THRESHOLD_REQUEST))
        (after,) = service.datasets()
        assert after["loaded"]
        assert (after["num_series"], after["length"]) == (NUM_SERIES, LENGTH)

    def test_dataset_info_exposes_stats(self, service):
        service.query("demo", dict(THRESHOLD_REQUEST))
        info = service.dataset_info("demo")
        assert info["stats"]["queries"] == 1
        assert info["stats"]["sketch_cache"]["builds"] == 1
        assert info["series_ids"] == [f"s{i}" for i in range(NUM_SERIES)]

    def test_unknown_dataset_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.query("ghost", dict(THRESHOLD_REQUEST))
        assert excinfo.value.status == 404


class TestQueryExecution:
    def test_bit_identical_to_in_process_session(self, service, values):
        document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
        remote = result_from_wire(document)
        session = CorrelationSession(
            TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
            basic_window_size=BASIC,
        )
        local = session.run(
            ThresholdQuery(start=0, end=LENGTH, window=64, step=32, threshold=0.5)
        )
        assert remote.to_edges() == local.to_edges()
        assert remote.query == local.query

    def test_second_identical_query_is_served_warm(self, service):
        service.query("demo", dict(THRESHOLD_REQUEST))
        service.query("demo", dict(THRESHOLD_REQUEST))
        stats = service.dataset_info("demo")["stats"]["sketch_cache"]
        assert stats["builds"] == 1
        assert stats["hits"] >= 1

    def test_topk_query_over_wire(self, service):
        document = json.loads(service.query(
            "demo",
            {"mode": "topk", "start": 0, "end": LENGTH, "window": 64, "step": 32,
             "k": 3},
        ))
        result = result_from_wire(document)
        assert result.num_windows == 7
        assert all(window.k == 3 for window in result.windows)

    def test_request_only_fields_do_not_leak_into_spec(self, service):
        document = json.loads(service.query(
            "demo", {**THRESHOLD_REQUEST, "include_edges": True}
        ))
        assert "edges" in document
        assert document["query"] == {k: v for k, v in THRESHOLD_REQUEST.items()} | {
            "threshold_mode": "signed"
        }

    @pytest.mark.parametrize("flag", ["no", 1])
    def test_non_boolean_include_edges_rejected(self, service, flag):
        # ``bool("no")`` is True: a truthiness check would include the edges.
        with pytest.raises(ServiceError, match="'include_edges'") as excinfo:
            service.query("demo", {**THRESHOLD_REQUEST, "include_edges": flag})
        assert excinfo.value.status == 400

    def test_null_include_edges_means_no_edges(self, service):
        # A null transport field is "not set".
        document = json.loads(service.query(
            "demo", {**THRESHOLD_REQUEST, "include_edges": None}
        ))
        assert "edges" not in document

    @pytest.mark.parametrize("workers", [None, 1, 2, "many"])
    def test_workers_field_rejected(self, service, workers):
        # The service never shards a query, so "workers" is no transport
        # field: the spec decoder names it like any other unknown field.
        with pytest.raises(
            ServiceError, match=r"unknown query field\(s\) \['workers'\]"
        ) as excinfo:
            service.query("demo", {**THRESHOLD_REQUEST, "workers": workers})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("option", ["use_temporal_pruning", "slack"])
    def test_a_jumping_option_fails_the_start(self, catalog, capsys, option):
        """Jumping is an experiment engine, not a service option: a service
        asked to start with its options names the accepted ones instead of
        answering with a silently different engine."""
        value = {"use_temporal_pruning": True, "slack": 0.1}[option]
        with pytest.raises(
            ExperimentError, match=r"accepted options: \['basic_window_size'\]"
        ):
            CorrelationService(
                catalog, engine_options={option: value}, basic_window_size=BASIC
            )
        code = main([
            "serve", "--catalog", str(catalog.root), "--port", "0",
            "--engine-opt", f"{option}={str(value).lower()}",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid options for engine 'dangoron'")
        assert f"'{option}'" in err and "Traceback" not in err

    def test_a_misspelt_engine_option_fails_the_start(self, catalog, capsys):
        """The engine resolves when the service starts, so a bad option is
        named then, not on each threshold request after top-k answered."""
        with pytest.raises(ExperimentError, match="'num_pivtos'"):
            CorrelationService(catalog, engine_options={"num_pivtos": 2})
        code = main([
            "serve", "--catalog", str(catalog.root), "--port", "0",
            "--engine-opt", "num_pivtos=2",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: invalid options for engine 'dangoron'")
        assert "'num_pivtos'" in err and "Traceback" not in err

    def test_non_object_request_rejected(self, service):
        with pytest.raises(ServiceError, match="JSON object"):
            service.query("demo", [1, 2, 3])


TOPK_REQUEST = {
    "mode": "topk", "start": 0, "end": LENGTH, "window": 64, "step": 32, "k": 3,
}
LAGGED_REQUEST = {
    "mode": "lagged", "start": 0, "end": LENGTH, "window": 64, "step": 64,
    "max_lag": 2, "threshold": 0.4,
}
EVERY_FAMILY = pytest.mark.parametrize(
    "request_body", [THRESHOLD_REQUEST, TOPK_REQUEST, LAGGED_REQUEST],
    ids=["threshold", "topk", "lagged"],
)


class TestCoalescing:
    @EVERY_FAMILY
    def test_identical_concurrent_queries_share_one_execution(
        self, service, monkeypatch, request_body
    ):
        runtime = service._runtime("demo")
        release = threading.Event()
        started = threading.Event()
        original = DatasetRuntime.session

        def slow_session(self):
            started.set()
            release.wait(timeout=10)
            return original(self)

        monkeypatch.setattr(DatasetRuntime, "session", slow_session)
        payloads = []

        def follower():
            payloads.append(service.query("demo", dict(request_body)))

        leader = threading.Thread(target=follower)
        leader.start()
        assert started.wait(timeout=10)  # leader is inside the execution
        chaser = threading.Thread(target=follower)
        chaser.start()
        # The chaser joined the leader's member slot; only after the leader is
        # released does either finish.
        chaser.join(timeout=0.3)
        assert chaser.is_alive()
        release.set()
        leader.join(timeout=10)
        chaser.join(timeout=10)
        assert len(payloads) == 2
        assert payloads[0] is payloads[1]  # literally the same response object
        assert runtime.counters["coalesced"] == 1
        assert runtime.counters["queries"] == 2  # both requests were answered
        assert runtime.counters["executed"] == 1  # ... by one planner scan

    @EVERY_FAMILY
    def test_leader_error_propagates_to_followers(
        self, service, monkeypatch, request_body
    ):
        runtime = service._runtime("demo")
        release = threading.Event()
        started = threading.Event()

        def exploding_session(self):
            started.set()
            release.wait(timeout=10)
            raise RuntimeError("engine on fire")

        monkeypatch.setattr(DatasetRuntime, "session", exploding_session)
        errors = []

        def run():
            try:
                service.query("demo", dict(request_body))
            except RuntimeError as error:
                errors.append(error)

        leader = threading.Thread(target=run)
        leader.start()
        assert started.wait(timeout=10)  # the leader is inside the execution
        follower = threading.Thread(target=run)
        follower.start()
        follower.join(timeout=0.3)
        assert follower.is_alive()  # ... and the follower waits on it
        release.set()
        leader.join(timeout=10)
        follower.join(timeout=10)
        assert len(errors) == 2
        assert errors[0] is errors[1]  # the follower re-raised the leader's error
        assert runtime.counters["queries"] == 0
        assert runtime.batches == {}  # the failed batch left nothing behind


    def test_mixed_families_answer_as_an_isolated_service(self, catalog):
        # Exact scans on both sides, so batched or alone there is one answer.
        options = {}
        requests = [
            {**THRESHOLD_REQUEST, "threshold": threshold}
            for threshold in (0.4, 0.5, 0.6)
        ] + [TOPK_REQUEST, LAGGED_REQUEST]
        expected = [
            result_from_wire(json.loads(
                CorrelationService(
                    catalog.root, basic_window_size=BASIC, engine_options=options
                ).query("demo", dict(request))
            )).to_edges()
            for request in requests
        ]
        service = CorrelationService(
            catalog, basic_window_size=BASIC, engine_options=options,
            batch_window_seconds=0.005,
        )
        rounds, copies = 3, 3
        barrier = threading.Barrier(len(requests) * copies)
        stop = threading.Event()
        snapshots, mismatches, errors = [], [], []

        def read_metrics():
            while not stop.is_set():
                stats = service.metrics()["datasets"].get("demo")
                if stats is not None:
                    snapshots.append(stats)

        def ask(index):
            try:
                barrier.wait(timeout=10)
                for _ in range(rounds):
                    document = json.loads(service.query("demo", dict(requests[index])))
                    if result_from_wire(document).to_edges() != expected[index]:
                        mismatches.append(index)
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        reader = threading.Thread(target=read_metrics)
        reader.start()
        askers = [
            threading.Thread(target=ask, args=(index,))
            for index in range(len(requests))
            for _ in range(copies)
        ]
        for asker in askers:
            asker.start()
        for asker in askers:
            asker.join(timeout=30)
        stop.set()
        reader.join(timeout=10)
        assert not any(asker.is_alive() for asker in askers)
        assert errors == [] and mismatches == []
        assert snapshots
        for stats in snapshots:
            assert stats["queries"] >= stats["coalesced"] + stats["batched"]
        final = service.dataset_info("demo")["stats"]
        assert final["queries"] == len(askers) * rounds
        assert (
            final["executed"] + final["coalesced"] + final["batched"]
            == final["queries"]
        )
        assert final["executed"] < final["queries"]  # requests really merged

    def test_burst_of_distinct_thresholds_shares_one_scan(self, catalog):
        # Exact scans on both sides, so batched or alone there is one answer.
        options = {}
        requests = {
            threshold: {**THRESHOLD_REQUEST, "threshold": threshold}
            for threshold in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        }
        alone = CorrelationService(
            catalog.root, basic_window_size=BASIC, engine_options=options
        )
        expected = {
            threshold: result_from_wire(
                json.loads(alone.query("demo", dict(request)))
            ).to_edges()
            for threshold, request in requests.items()
        }
        service = CorrelationService(
            catalog, basic_window_size=BASIC, engine_options=options
        )
        runtime = service._runtime("demo")
        answers = {}

        def ask(threshold):
            document = json.loads(service.query("demo", dict(requests[threshold])))
            answers[threshold] = result_from_wire(document).to_edges()

        askers = [threading.Thread(target=ask, args=(t,)) for t in requests]
        # The leader queues on the runtime lock before it fixes the batch's
        # floor, so holding the lock keeps the batch open for the whole burst.
        with runtime.lock:
            for asker in askers:
                asker.start()
            deadline = time.monotonic() + 10
            while True:
                with runtime.batches_lock:
                    joined = sum(len(b.members) for b in runtime.batches.values())
                if joined == len(requests):
                    break
                assert time.monotonic() < deadline, f"only {joined} joined"
                time.sleep(0.005)
        for asker in askers:
            asker.join(timeout=10)
        assert answers == expected
        assert runtime.counters["executed"] == 1  # six answers, one scan
        assert runtime.counters["batched"] == len(requests) - 1
        assert runtime.counters["queries"] == len(requests)

    def test_an_approximate_engine_answers_each_threshold_alone(self, tmp_path):
        """ParCorr's candidate filter admits different pairs at different
        thresholds, so a scan at the lower one filtered to the higher keeps
        pairs the higher threshold's own run never reports (on this data:
        443 edges against 370).  Its service must not batch thresholds:
        each request answers as it would alone, whatever arrives with it."""
        rng = np.random.default_rng(0)
        base = rng.standard_normal((2, LENGTH))
        values = base[np.arange(16) % 2] + rng.uniform(0.3, 1.2, (16, 1)) * (
            rng.standard_normal((16, LENGTH))
        )
        store = ChunkStore(16, chunk_columns=64)
        store.append(values)
        catalog = Catalog(tmp_path)
        catalog.add_dataset("drift", store)
        requests = {
            threshold: {"mode": "threshold", "start": 0, "end": LENGTH,
                        "window": 64, "step": 16, "threshold": threshold}
            for threshold in (0.4, 0.6)
        }
        alone = CorrelationService(catalog.root, engine="parcorr", basic_window_size=BASIC)
        expected = {
            threshold: result_from_wire(
                json.loads(alone.query("drift", dict(request)))
            ).to_edges()
            for threshold, request in requests.items()
        }
        service = CorrelationService(catalog, engine="parcorr", basic_window_size=BASIC)
        runtime = service._runtime("drift")
        answers = {}

        def ask(threshold):
            document = json.loads(service.query("drift", dict(requests[threshold])))
            answers[threshold] = result_from_wire(document).to_edges()

        askers = [threading.Thread(target=ask, args=(t,)) for t in requests]
        # Both requests queue while the lock is held, as in the burst above.
        with runtime.lock:
            for asker in askers:
                asker.start()
            deadline = time.monotonic() + 10
            while True:
                with runtime.batches_lock:
                    joined = sum(len(b.members) for b in runtime.batches.values())
                if joined == len(requests):
                    break
                assert time.monotonic() < deadline, f"only {joined} joined"
                time.sleep(0.005)
        for asker in askers:
            asker.join(timeout=10)
        assert answers == expected
        assert runtime.counters["executed"] == len(requests)
        assert runtime.counters["batched"] == 0


class TestLoadShedding:
    def test_full_queue_sheds_and_counts_only_served_requests(
        self, catalog, parked_scan
    ):
        service = CorrelationService(
            catalog, basic_window_size=BASIC,
            admission_queue_limit=1, retry_after_seconds=0.5,
        )
        started, release = parked_scan
        served = []
        leader = threading.Thread(
            target=lambda: served.append(service.query("demo", dict(THRESHOLD_REQUEST)))
        )
        leader.start()
        assert started.wait(timeout=10)  # the leader holds the only slot
        refusals = []
        # Not even a duplicate of the request in flight gets past a full queue.
        for request in (THRESHOLD_REQUEST, TOPK_REQUEST):
            with pytest.raises(ServiceError) as excinfo:
                service.query("demo", dict(request))
            refusals.append(excinfo.value)
        release.set()
        leader.join(timeout=10)
        assert [error.status for error in refusals] == [429, 429]
        assert [error.retry_after for error in refusals] == [0.5, 0.5]
        assert len(served) == 1
        stats = service.metrics()["datasets"]["demo"]
        assert stats["admission"] == {"queue_depth": 0, "shed": len(refusals)}
        assert stats["queries"] == 1  # a refusal is not an answer
        service.query("demo", dict(TOPK_REQUEST))  # the slot is free again
        assert service.metrics()["datasets"]["demo"]["queries"] == 2


class TestIndexSeeding:
    def test_matching_index_is_materialized_lazily(self, catalog, values):
        catalog.add_index("demo", StatsIndex.build(values, basic_window_size=BASIC))
        service = CorrelationService(catalog, basic_window_size=BASIC)
        document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 1
        assert stats["sketch_cache"]["builds"] == 0
        assert stats["sketch_cache"]["seeds"] == 1
        # Seeded statistics answer with the exact same result.
        fresh = CorrelationService(catalog.root, basic_window_size=BASIC)
        rebuilt = json.loads(fresh.query("demo", dict(THRESHOLD_REQUEST)))
        assert result_from_wire(document).to_edges() == result_from_wire(rebuilt).to_edges()

    def test_mismatched_index_size_is_ignored(self, catalog, values):
        catalog.add_index("demo", StatsIndex.build(values, basic_window_size=64))
        service = CorrelationService(catalog, basic_window_size=BASIC)
        service.query("demo", dict(THRESHOLD_REQUEST))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 0
        assert stats["sketch_cache"]["builds"] == 1

    def test_previous_format_index_degrades_to_a_build(self, catalog, values):
        # A v2 archive (diagonal rows packed, N (N + 1) / 2 of them) left in
        # the catalog by an older release is refused by format and the
        # request is answered by a normal build, with the same answer.
        built = json.loads(
            CorrelationService(catalog, basic_window_size=BASIC).query(
                "demo", dict(THRESHOLD_REQUEST)
            )
        )
        label = catalog.add_index("demo", StatsIndex.build(values, basic_window_size=BASIC))
        path = catalog.root / catalog.describe("demo").index_files[label]
        with np.load(path) as archive:
            fields = {name: archive[name] for name in archive.files}
        count = fields["series_sums"].shape[1]
        fields["format"] = np.array("repro.stats-index/v2")
        fields["pair_sumprods"] = np.zeros((NUM_SERIES * (NUM_SERIES + 1) // 2, count))
        np.savez_compressed(path, **fields)
        service = CorrelationService(catalog, basic_window_size=BASIC)
        document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 0
        assert stats["sketch_cache"]["builds"] == 1
        assert result_from_wire(document).to_edges() == result_from_wire(built).to_edges()

    def test_stale_index_is_rejected_not_served(self, catalog, values):
        # An index whose statistics do not match the live data (here: built
        # from different data, registered under the same label) must degrade
        # to a normal build — never silently answer with foreign statistics.
        other = np.random.default_rng(1234).standard_normal(values.shape)
        catalog.add_index("demo", StatsIndex.build(other, basic_window_size=BASIC))
        service = CorrelationService(catalog, basic_window_size=BASIC)
        document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 0
        assert stats["sketch_cache"]["builds"] == 1
        # ... and the answer matches a fresh in-process run over the real data.
        session = CorrelationSession(
            TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
            basic_window_size=BASIC,
        )
        local = session.run(
            ThresholdQuery(start=0, end=LENGTH, window=64, step=32, threshold=0.5)
        )
        assert result_from_wire(document).to_edges() == local.to_edges()


class TestAppendAndWatch:
    WATCH_REQUEST = {
        "mode": "threshold", "start": 0, "end": LENGTH, "window": 64, "step": 32,
        "threshold": 0.5,
    }

    def test_watch_catches_up_on_stored_history(self, service):
        response = service.watch("demo", dict(self.WATCH_REQUEST))
        assert response["emitted_windows"] == 7  # (256 - 64) / 32 + 1

    @pytest.mark.parametrize("options", [{}, {"use_horizontal_pruning": True}])
    def test_watch_answers_like_the_served_query(self, tmp_path, small_matrix, options):
        """A watch answers like the served query: over the stored prefix it
        emits the served query's windows, bit for bit (both run the exact
        grid; the planner drops the pivot option)."""
        store = ChunkStore(small_matrix.num_series, chunk_columns=128)
        store.append(small_matrix.values)
        catalog = Catalog(tmp_path / "catalog")
        catalog.add_dataset("ar1", store)
        service = CorrelationService(
            catalog, basic_window_size=32, engine_options=options
        )
        request = {"mode": "threshold", "start": 0, "end": small_matrix.length,
                   "window": 128, "step": 32, "threshold": 0.6}
        served = json.loads(service.query("ar1", dict(request)))
        watched = service.watch("ar1", dict(request))["windows"]
        assert [w["index"] for w in watched] == [w["index"] for w in served["windows"]]
        for ours, theirs in zip(watched, served["windows"]):
            assert (ours["rows"], ours["cols"], ours["values"]) == (
                theirs["rows"], theirs["cols"], theirs["values"]
            )

    def test_append_feeds_standing_queries(self, service, values):
        watch = service.watch("demo", dict(self.WATCH_REQUEST))
        rng = np.random.default_rng(5)
        block = rng.standard_normal((32, NUM_SERIES))  # 32 time steps on the wire
        response = service.append("demo", {"columns": block.tolist()})
        assert response["length"] == LENGTH + 32
        (state,) = response["watches"]
        assert state["id"] == watch["id"]
        assert len(state["windows"]) == 1  # one more full step completed

        # The emitted window matches the offline engine over the full stream.
        full = np.concatenate([values, block.T], axis=1)
        session = CorrelationSession(TimeSeriesMatrix(full), basic_window_size=BASIC)
        offline = session.run(
            ThresholdQuery(start=0, end=LENGTH + 32, window=64, step=32,
                           threshold=0.5)
        )
        emitted = state["windows"][0]
        matrix = offline.matrices[emitted["index"]]
        assert emitted["rows"] == matrix.rows.tolist()
        assert emitted["values"] == pytest.approx(matrix.values.tolist())

    def test_watch_shares_the_dataset_sketch(self, service, values):
        """A watch advances over the cache entry queries share: K appends,
        each followed by the anchored query, cost K extensions and no build,
        and the watch emits bit for bit what a monitor owning its own sketch
        emits when fed the same columns."""
        from repro.streaming.online import OnlineCorrelationMonitor

        monitor = OnlineCorrelationMonitor.for_query(
            ThresholdQuery(**{k: v for k, v in self.WATCH_REQUEST.items()
                              if k != "mode"}),
            num_series=NUM_SERIES, basic_window_size=BASIC,
        )
        expected = monitor.append(values)
        watch = service.watch("demo", dict(self.WATCH_REQUEST))
        cache = service._runtime("demo").sketch_cache
        builds = cache.builds

        rng = np.random.default_rng(17)
        rounds = 5
        for round_index in range(rounds):
            block = rng.standard_normal((32, NUM_SERIES))
            service.append("demo", {"columns": block.tolist()})
            expected.extend(monitor.append(np.ascontiguousarray(block.T)))
            length = LENGTH + 32 * (round_index + 1)
            document = json.loads(service.query(
                "demo", {**self.WATCH_REQUEST, "end": length}
            ))
            assert document["num_windows"] == (length - 64) // 32 + 1
        assert cache.builds == builds
        assert cache.stats.sketch_extensions == rounds

        emitted = service.watch_results("demo", watch["id"])["windows"]
        assert [w["index"] for w in emitted] == [r.window_index for r in expected]
        for document, result in zip(emitted, expected):
            assert (document["start"], document["end"]) == (result.start, result.end)
            assert document["rows"] == result.matrix.rows.tolist()
            assert document["cols"] == result.matrix.cols.tolist()
            assert document["values"] == result.matrix.values.tolist()

    def test_watches_share_one_sketch_per_basic_window_size(self, service):
        """Two watches aligned to the same basic window advance over one
        cache entry (one extension per append); a third aligned to a smaller
        one gets its own anchored layout."""
        service.watch("demo", dict(self.WATCH_REQUEST))
        service.watch("demo", {**self.WATCH_REQUEST, "threshold": 0.2})
        cache = service._runtime("demo").sketch_cache
        block = np.random.default_rng(3).standard_normal((32, NUM_SERIES))
        response = service.append("demo", {"columns": block.tolist()})
        assert [len(w["windows"]) for w in response["watches"]] == [1, 1]
        assert (len(cache), cache.stats.sketch_extensions) == (1, 1)

        service.watch("demo", {**self.WATCH_REQUEST, "window": 24, "step": 8})
        assert len(cache) == 2  # b=16 for the first two, b=8 for this one
        response = service.append("demo", {"columns": block.tolist()})
        assert [len(w["windows"]) for w in response["watches"]] == [1, 1, 4]
        assert cache.stats.sketch_extensions == 3

    def test_watch_on_a_stream_shorter_than_its_window(self, service):
        """Registration emits nothing (and builds nothing) until the stored
        columns hold one window; the append that completes it emits it."""
        request = {**self.WATCH_REQUEST, "end": LENGTH + 32, "window": LENGTH + 32}
        watch = service.watch("demo", request)
        cache = service._runtime("demo").sketch_cache
        assert (watch["emitted_windows"], cache.builds) == (0, 0)
        response = service.append(
            "demo", {"columns": np.ones((32, NUM_SERIES)).tolist()}
        )
        (state,) = response["watches"]
        assert [(w["start"], w["end"]) for w in state["windows"]] == [(0, LENGTH + 32)]

    def test_appended_columns_are_queryable(self, service):
        service.append(
            "demo",
            {"columns": np.zeros((32, NUM_SERIES)).tolist()},
        )
        document = json.loads(service.query(
            "demo",
            {"mode": "threshold", "start": 0, "end": LENGTH + 32, "window": 64,
             "step": 32, "threshold": 0.5},
        ))
        assert document["num_windows"] == 8

    def test_append_shape_mismatch_rejected(self, service):
        with pytest.raises(ServiceError, match="one per series"):
            service.append("demo", {"columns": [[1.0, 2.0]]})

    def test_append_past_the_float_range_is_a_400(self, service):
        step = [10 ** 400] + [1.0] * (NUM_SERIES - 1)
        with pytest.raises(ServiceError, match="numeric") as excinfo:
            service.append("demo", {"columns": [step]})
        assert excinfo.value.status == 400
        assert service.dataset_info("demo")["length"] == LENGTH

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_append_keeps_the_warm_cache(self, service, bad):
        """A non-finite append is refused before the sketch chain moves: the
        length stays, the identical re-query is a hit, and a finite append
        afterwards still extends the cached sketch instead of rebuilding."""
        service.query("demo", dict(THRESHOLD_REQUEST))
        cache = service._runtime("demo").sketch_cache
        builds, entries = cache.builds, len(cache)
        block = np.random.default_rng(5).standard_normal((32, NUM_SERIES))
        poisoned = block.copy()
        poisoned[3, 1] = bad
        with pytest.raises(ServiceError, match="finite") as excinfo:
            service.append("demo", {"columns": poisoned.tolist()})
        assert excinfo.value.status == 400
        assert service.dataset_info("demo")["length"] == LENGTH

        service.query("demo", dict(THRESHOLD_REQUEST))
        assert (cache.builds, len(cache)) == (builds, entries)

        extensions = cache.stats.sketch_extensions
        service.append("demo", {"columns": block.tolist()})
        service.query("demo", {**THRESHOLD_REQUEST, "end": LENGTH + 32})
        assert cache.stats.sketch_extensions == extensions + 1
        assert cache.builds == builds

    def test_append_requires_columns_key(self, service):
        with pytest.raises(ServiceError, match="columns"):
            service.append("demo", {"rows": []})

    def test_watch_rejects_topk(self, service):
        from repro.exceptions import StreamingError

        with pytest.raises(StreamingError, match="threshold specs only"):
            service.watch(
                "demo",
                {"mode": "topk", "start": 0, "end": LENGTH, "window": 64,
                 "step": 32, "k": 3},
            )

    def test_unknown_watch_id_is_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.watch_results("demo", "w999")
        assert excinfo.value.status == 404

    def test_watch_history_is_bounded(self, service, monkeypatch):
        import repro.service.service as service_module

        monkeypatch.setattr(service_module, "WATCH_HISTORY_LIMIT", 3)
        watch = service.watch("demo", dict(self.WATCH_REQUEST))  # emits 7
        results = service.watch_results("demo", watch["id"])
        assert results["emitted_windows"] == 7      # full count survives
        assert results["retained_windows"] == 3     # history is capped
        assert [w["index"] for w in results["windows"]] == [4, 5, 6]
