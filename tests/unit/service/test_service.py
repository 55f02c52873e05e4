"""Unit tests for the service domain layer (no sockets involved).

Covers the warm-session/bit-identity contract, in-flight coalescing and
threshold batching, load shedding, lazy materialization of persisted stats
indexes, the append/standing-query path and the error surface.
"""

import json
import shutil
import threading
import time

import numpy as np
import pytest

from repro.api import CorrelationSession, ThresholdQuery, TopKQuery
from repro.cli import main
from repro.core import engine as engine_module
from repro.exceptions import ExperimentError, ServiceError, StorageError
from repro.experiments.approximate import ParCorrEngine
from repro.service import CorrelationService, result_from_wire
from repro.service.service import DatasetRuntime
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
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

    def test_an_approximate_engine_fails_the_start(self, catalog, capsys, monkeypatch):
        """The service serves exact engines only: threshold batching derives
        each caller's answer from a scan at a lower threshold, and an
        approximate engine's filter admits different pairs at different
        thresholds.  No registered engine is approximate, but a third party
        can register one; the service then names it and refuses to start."""
        monkeypatch.setitem(engine_module._ENGINE_REGISTRY, "parcorr", ParCorrEngine)
        with pytest.raises(
            ServiceError,
            match=r"exact engines only: engine 'parcorr' answers 'approximate'",
        ):
            CorrelationService(catalog, engine="parcorr", basic_window_size=BASIC)
        code = main([
            "serve", "--catalog", str(catalog.root), "--port", "0",
            "--engine", "parcorr",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: the service serves exact engines only")
        assert "'parcorr'" in err and "'approximate'" in err
        assert "Traceback" not in err

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
#: Windows that do not recombine from whole basic windows (TSUBASA's edge
#: correction reads raw columns for them).
UNALIGNED_REQUEST = {
    "mode": "threshold", "start": 0, "end": LENGTH, "window": 50, "step": 7,
    "threshold": 0.5,
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


def _answer(document):
    """The answer part of a response document (no plan or timing stats)."""
    return {key: document[key] for key in ("query", "windows", "series_ids")}


def _served(document):
    """A response document without its ``describe`` line and stats timings:
    what a pooled and a pool-less service must agree on."""
    served = {k: v for k, v in document.items() if k != "describe"}
    if "stats" in document:
        served["stats"] = {
            k: v for k, v in document["stats"].items() if not k.endswith("_seconds")
        }
    return served


def _pooled(catalog, **options):
    """A one-worker service over ``catalog``; skips where ``fork`` fails."""
    service = CorrelationService(
        catalog, service_workers=1, **{"basic_window_size": BASIC, **options}
    )
    if service.metrics()["worker_pool"] is None:
        service.close()
        pytest.skip("fork worker pool unavailable")
    return service


def _pool_less_answers(catalog, requests, **options):
    with CorrelationService(
        catalog, **{"basic_window_size": BASIC, **options}
    ) as service:
        return [json.loads(service.query("demo", dict(r))) for r in requests]


class TestIndexSeeding:
    @pytest.mark.parametrize("memory_budget", [None, 64 * 1024])
    def test_matching_index_is_materialized_lazily(self, catalog, memory_budget):
        built = json.loads(
            CorrelationService(catalog, basic_window_size=BASIC).query(
                "demo", dict(THRESHOLD_REQUEST)
            )
        )
        catalog.add_index("demo", basic_window_size=BASIC)
        service = CorrelationService(
            catalog, basic_window_size=BASIC, memory_budget=memory_budget
        )
        document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 1
        assert stats["sketch_cache"]["builds"] == 0
        assert stats["sketch_cache"]["seeds"] == 1
        # Seeded statistics answer with the exact same bits as a build.
        assert _answer(document) == _answer(built)

    def test_a_pooled_service_answers_from_the_index_directory(self, catalog):
        """The index is the workers' segment: no export, no build, and the
        pool-less service's body."""
        catalog.add_index("demo", basic_window_size=BASIC)
        (expected,) = _pool_less_answers(catalog, [THRESHOLD_REQUEST])
        with _pooled(catalog) as service:
            document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
            stats = service.dataset_info("demo")["stats"]
            warm = list(service._pool._warm)
        assert stats["segments"]["exports"] == 0
        assert stats["sketch_cache"]["builds"] == 0
        assert stats["indexes_seeded"] == 1
        assert warm == [str(catalog.root / catalog.describe("demo").index_files["b16"])]
        assert _served(document) == _served(expected)

    def test_two_labels_are_served_pooled_each_from_its_directory(self, catalog):
        catalog.add_index("demo", basic_window_size=16)
        catalog.add_index("demo", basic_window_size=32)
        requests = [  # b = 32 (8 basic windows), then b = 16 (16 of them)
            {**THRESHOLD_REQUEST, "window": 64, "step": 32},
            {**THRESHOLD_REQUEST, "window": 48, "step": 16},
        ]
        expected = _pool_less_answers(catalog, requests, basic_window_size=32)
        with _pooled(catalog, basic_window_size=32) as service:
            documents = [json.loads(service.query("demo", dict(r))) for r in requests]
            stats = service.dataset_info("demo")["stats"]
            warm = list(service._pool._warm)
        files = catalog.describe("demo").index_files
        assert warm == [str(catalog.root / files[label]) for label in ("b32", "b16")]
        assert stats["segments"]["exports"] == 0
        assert stats["sketch_cache"]["builds"] == 0
        assert stats["indexes_seeded"] == 2
        assert list(map(_served, documents)) == list(map(_served, expected))

    def test_a_removed_index_directory_is_exported_once(self, catalog):
        catalog.add_index("demo", basic_window_size=BASIC)
        requests = [THRESHOLD_REQUEST, {**THRESHOLD_REQUEST, "threshold": 0.7}]
        expected = _pool_less_answers(catalog, requests)
        with _pooled(catalog) as service:
            first = json.loads(service.query("demo", dict(requests[0])))
            shutil.rmtree(catalog.root / catalog.describe("demo").index_files["b16"])
            second = json.loads(service.query("demo", dict(requests[1])))
            service.query("demo", dict(requests[1]))
            stats = service.dataset_info("demo")["stats"]
        assert stats["segments"]["exports"] == 1
        assert stats["sketch_cache"]["builds"] == 0
        assert [_answer(first), _answer(second)] == list(map(_answer, expected))

    def test_a_rewritten_index_is_reattached_not_exported(self, catalog):
        """``add_index`` writes a label into a new directory and removes the
        old one; the next pooled job names the new directory."""
        catalog.add_index("demo", basic_window_size=BASIC)
        requests = [THRESHOLD_REQUEST, {**THRESHOLD_REQUEST, "threshold": 0.7}]
        expected = _pool_less_answers(catalog, requests)
        with _pooled(catalog) as service:
            first = json.loads(service.query("demo", dict(requests[0])))
            service.catalog.add_index("demo", basic_window_size=BASIC)
            second = json.loads(service.query("demo", dict(requests[1])))
            stats = service.dataset_info("demo")["stats"]
            warm = list(service._pool._warm)
        rewritten = catalog.root / catalog.describe("demo").index_files["b16"]
        assert stats["segments"]["exports"] == 0
        assert warm[-1] == str(rewritten)
        assert [_served(first), _served(second)] == list(map(_served, expected))

    def test_an_append_exports_exactly_once(self, catalog):
        catalog.add_index("demo", basic_window_size=BASIC)
        columns = np.random.default_rng(5).standard_normal((32, NUM_SERIES))
        grown = {**THRESHOLD_REQUEST, "end": LENGTH + 32}
        answers = []
        for service in (CorrelationService(catalog, basic_window_size=BASIC),
                        _pooled(catalog)):
            with service:
                service.query("demo", dict(THRESHOLD_REQUEST))
                service.append("demo", {"columns": columns.tolist()})
                answers.append([
                    _answer(json.loads(service.query("demo", {**grown, "threshold": beta})))
                    for beta in (0.5, 0.7)
                ])
                stats = service.dataset_info("demo")["stats"]
        assert stats["segments"]["exports"] == 1  # the pooled service's
        pool_less, pooled = answers
        assert pooled == pool_less

    def test_mismatched_index_size_is_ignored(self, catalog):
        catalog.add_index("demo", basic_window_size=64)
        service = CorrelationService(catalog, basic_window_size=BASIC)
        service.query("demo", dict(THRESHOLD_REQUEST))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 0
        assert stats["sketch_cache"]["builds"] == 1

    def test_an_index_waits_for_the_plan_it_matches(self, catalog):
        """An index whose layout the first plan does not match stays
        available to a later plan that does."""
        catalog.add_index("demo", basic_window_size=BASIC)
        service = CorrelationService(catalog, basic_window_size=BASIC)
        service.query("demo", {**THRESHOLD_REQUEST, "end": LENGTH - 32})
        service.query("demo", dict(THRESHOLD_REQUEST))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 1
        assert stats["sketch_cache"]["builds"] == 1

    def test_previous_format_index_degrades_to_a_build(self, catalog):
        # A v2 archive (diagonal rows packed, N (N + 1) / 2 of them) left in
        # the catalog's manifest by an older release is refused by name and
        # the request is answered by a normal build, with the same answer.
        built = json.loads(
            CorrelationService(catalog, basic_window_size=BASIC).query(
                "demo", dict(THRESHOLD_REQUEST)
            )
        )
        count = LENGTH // BASIC
        np.savez_compressed(
            catalog.root / "demo.index.b16.npz",
            offset=np.array([0]),
            size=np.array([BASIC]),
            count=np.array([count]),
            format=np.array("repro.stats-index/v2"),
            series_sums=np.zeros((NUM_SERIES, count)),
            series_sumsqs=np.ones((NUM_SERIES, count)),
            pair_sumprods=np.zeros((NUM_SERIES * (NUM_SERIES + 1) // 2, count)),
        )
        manifest = catalog.root / "catalog.json"
        records = json.loads(manifest.read_text())
        records[0]["index_files"] = {"b16": "demo.index.b16.npz"}
        manifest.write_text(json.dumps(records))
        reopened = Catalog(catalog.root)
        with pytest.raises(StorageError, match="demo.index.b16.npz is a .npz stats-index"):
            reopened.load_index("demo", "b16")
        service = CorrelationService(reopened, basic_window_size=BASIC)
        document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 0
        assert stats["sketch_cache"]["builds"] == 1
        assert result_from_wire(document).to_edges() == result_from_wire(built).to_edges()

    def test_a_dataset_without_an_index_does_no_seeding_work(self, service, monkeypatch):
        runtime = service._runtime("demo")
        with runtime.lock:
            plan = runtime.session().plan(
                ThresholdQuery(start=0, end=LENGTH, window=64, step=32, threshold=0.5)
            )

            def unexpected(*args, **kwargs):
                raise AssertionError("no index, so nothing to look up")

            for target, name in ((runtime.sketch_cache, "contains"),
                                 (runtime.sketch_cache, "fingerprint_of"),
                                 (runtime.catalog, "load_index")):
                monkeypatch.setattr(target, name, unexpected)
            assert runtime.seed_sketch_for(plan) is False

    def test_a_refused_index_is_read_once_per_runtime(self, catalog, monkeypatch):
        catalog.describe("demo").index_files["b16"] = "demo.index.b16.npz"
        attempts = []
        original = catalog.load_index

        def counted(*args, **kwargs):
            attempts.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(catalog, "load_index", counted)
        service = CorrelationService(catalog, basic_window_size=BASIC)
        service.query("demo", dict(THRESHOLD_REQUEST))
        service.query("demo", {**THRESHOLD_REQUEST, "threshold": 0.7})
        assert len(attempts) == 1
        assert service.dataset_info("demo")["stats"]["sketch_cache"]["builds"] == 1

    def test_reingesting_identical_data_keeps_the_index_served(self, catalog, values):
        catalog.add_index("demo", basic_window_size=BASIC)
        same = ChunkStore(NUM_SERIES, chunk_columns=32)  # other chunking, same data
        same.append(values)
        catalog.add_dataset("demo", same, overwrite=True)
        service = CorrelationService(catalog, basic_window_size=BASIC)
        service.query("demo", dict(THRESHOLD_REQUEST))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 1
        assert stats["sketch_cache"]["builds"] == 0

    @pytest.mark.parametrize("memory_budget", [None, 64 * 1024])
    def test_stale_index_is_rejected_not_served(self, catalog, values, memory_budget):
        # An index whose statistics do not match the live data (here: built
        # from different data, which the dataset was then overwritten with
        # the real data over) must degrade to a normal build — never
        # silently answer with foreign statistics.
        other = np.random.default_rng(1234).standard_normal(values.shape)
        store = ChunkStore(NUM_SERIES, chunk_columns=64)
        store.append(other)
        catalog.add_dataset("demo", store, overwrite=True)
        catalog.add_index("demo", basic_window_size=BASIC)
        real = ChunkStore(NUM_SERIES, chunk_columns=64)
        real.append(values)
        catalog.add_dataset("demo", real, overwrite=True)
        service = CorrelationService(
            catalog, basic_window_size=BASIC, memory_budget=memory_budget
        )
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

    @pytest.mark.parametrize("memory_budget", [None, 64 * 1024])
    def test_overwritten_data_with_equal_sums_is_not_served_the_old_index(
        self, tmp_path, memory_budget
    ):
        """Dyadic data (every sum exact) with series 0 reversed inside each
        basic window keeps every per-series sum and sum of squares bit for
        bit but changes the pair products: only the content fingerprint
        tells the old index from the new data."""
        rng = np.random.default_rng(99)
        base = rng.integers(-8, 9, size=LENGTH)
        values = np.stack(
            [base + rng.integers(-3, 4, size=LENGTH) for _ in range(NUM_SERIES)]
        ) / 4.0
        flipped = values.copy()
        flipped[0] = values[0].reshape(-1, BASIC)[:, ::-1].ravel()
        catalog = Catalog(tmp_path)
        for data, overwrite in ((values, False), (flipped, True)):
            store = ChunkStore(NUM_SERIES, chunk_columns=64)
            store.append(data)
            catalog.add_dataset("demo", store, overwrite=overwrite)
            if not overwrite:
                catalog.add_index("demo", basic_window_size=BASIC)
        service = CorrelationService(
            catalog, basic_window_size=BASIC, memory_budget=memory_budget
        )
        document = json.loads(service.query("demo", dict(THRESHOLD_REQUEST)))
        stats = service.dataset_info("demo")["stats"]
        assert stats["indexes_seeded"] == 0
        assert stats["sketch_cache"]["builds"] == 1
        session = CorrelationSession(
            TimeSeriesMatrix(flipped, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
            basic_window_size=BASIC,
        )
        local = session.run(
            ThresholdQuery(start=0, end=LENGTH, window=64, step=32, threshold=0.5)
        )
        assert len(local.to_edges()) == 70
        assert result_from_wire(document).to_edges() == local.to_edges()


def _mapped_path(array: np.ndarray) -> str:
    """The file ``/proc/self/maps`` shows mapped at ``array``'s first byte."""
    address = array.__array_interface__["data"][0]
    try:
        with open("/proc/self/maps") as handle:
            lines = handle.read().splitlines()
    except OSError:
        pytest.skip("/proc/self/maps unavailable on this platform")
    for line in lines:
        fields = line.split(maxsplit=5)
        low, high = (int(bound, 16) for bound in fields[0].split("-"))
        if low <= address < high:
            return fields[5] if len(fields) > 5 else ""
    return ""


class TestOneResidentCopy:
    """A pooled service keeps one copy of a served snapshot: the segment's
    file pages, mapped by the parent's cache and by every worker."""

    def test_the_parent_entry_is_the_export(self, catalog):
        with _pooled(catalog) as service:
            service.query("demo", dict(THRESHOLD_REQUEST))
            runtime = service._runtime("demo")
            with runtime.lock:
                matrix = runtime.session().matrix
                layout = runtime.session().plan(
                    ThresholdQuery(start=0, end=LENGTH, window=64, step=32,
                                   threshold=0.5)
                ).layout
                entry = runtime.sketch_cache.get_or_extend(matrix, layout)
                segment = runtime.segments.find(
                    runtime.sketch_cache.fingerprint_of(matrix), layout
                )
            assert entry is segment.sketch
            path = (segment.path / "pair_sumprods.npy").resolve()
            assert _mapped_path(entry.pair_sumprods) == str(path)

    def test_a_live_export_is_not_rebuilt(self, catalog):
        """A shape whose parent entry was evicted answers from its live
        export: nothing is built and nothing exported again."""
        shapes = [
            {**THRESHOLD_REQUEST, "start": start, "end": start + 128}
            for start in range(0, 16 * 9, 16)
        ]
        (expected,) = _pool_less_answers(catalog, [shapes[0]])
        with _pooled(catalog) as service:
            first = json.loads(service.query("demo", dict(shapes[0])))
            for shape in shapes[1:]:
                service.query("demo", dict(shape))
            before = service.dataset_info("demo")["stats"]
            again = json.loads(service.query("demo", dict(shapes[0])))
            after = service.dataset_info("demo")["stats"]
        assert len(shapes) > 8 == before["sketch_cache"]["entries"]
        assert before["sketch_cache"]["builds"] == before["segments"]["exports"] == 9
        assert after["sketch_cache"]["builds"] == before["sketch_cache"]["builds"]
        assert after["segments"]["exports"] == before["segments"]["exports"]
        # Both pooled bodies report the parent's cache outcome (a cold build,
        # then an evicted entry), as the pool-less service does.
        assert _served(first) == _served(expected)
        assert _served(again) == _served(expected)

    def test_a_segment_the_workers_cannot_attach_is_a_server_fault(self, catalog):
        """A live export whose manifest is torn after the parent attached
        it is a 5xx naming the directory, never a 400 or an answer."""
        with _pooled(catalog) as service:
            runtime = service._runtime("demo")
            query = ThresholdQuery(start=0, end=LENGTH, window=64, step=32,
                                   threshold=0.5)
            with runtime.lock:
                session = runtime.session()
                directory, _, _ = service._segment_job(
                    runtime, session, session.plan(query)
                )
            segment = runtime.segments.find(
                runtime.sketch_cache.fingerprint_of(session.matrix),
                session.plan(query).layout,
            )
            assert str(segment.path) == directory  # live and attached
            (segment.path / "manifest.json").write_text("{torn")
            with pytest.raises(ServiceError) as excinfo:
                service.query("demo", dict(THRESHOLD_REQUEST))
            stats = service.dataset_info("demo")["stats"]
        assert excinfo.value.status >= 500
        assert f"cannot attach the segment at {directory}" in str(excinfo.value)
        assert stats["queries"] == 0

    @pytest.mark.parametrize(
        "request_body, engine, exports",
        [
            (THRESHOLD_REQUEST, "dangoron", 1),
            (TOPK_REQUEST, "dangoron", 1),
            (LAGGED_REQUEST, "dangoron", 0),
            (UNALIGNED_REQUEST, "tsubasa", 0),
        ],
        ids=["threshold", "topk", "lagged", "unaligned-tsubasa"],
    )
    def test_every_family_answers_from_statistics_like_pool_less(
        self, catalog, request_body, engine, exports
    ):
        """Pooled bodies equal pool-less ones, cold and warm, and the
        exports hold statistics only; a plan that reads raw columns (lagged,
        an unaligned window's edge correction) runs in process, exporting
        nothing."""
        expected = _pool_less_answers(
            catalog, [request_body, request_body], engine=engine
        )
        with _pooled(catalog, engine=engine) as service:
            documents = [
                json.loads(service.query("demo", dict(request_body)))
                for _ in range(2)
            ]
            stats = service.dataset_info("demo")["stats"]
            root = service._runtime("demo").segments.root
            files = sorted(p.name for p in root.glob("segment-*/*"))
        assert list(map(_served, documents)) == list(map(_served, expected))
        assert stats["segments"]["exports"] == exports
        assert files == exports * [
            "manifest.json", "pair_sumprods.npy", "series_sums.npy",
            "series_sumsqs.npy",
        ]


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
