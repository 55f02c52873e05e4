"""Worker pool over shared segments: dispatch, re-attach, crash recovery.

The worker protocol (attach-and-execute, its bit-identity against an
in-process session, the content check on the directory a job names) is
pinned by
calling the worker's own ``_execute_query`` / ``AttachmentCache`` in this
process.  The forked pool (self-skipping where ``fork`` is unavailable)
additionally pins errors crossing the pipe, the crash-replacement retry, the
closed-pool contract, the per-worker RSS observation and the bound on it that
shows the segment is shared, that no worker outlives a SIGKILLed server, and
warm routing: a job goes to the free worker already holding its attachment,
so a refresh's later panels read the grid ceiling its first panel recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import CorrelationSession, ThresholdQuery
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.core.tiled import ChunkBackedMatrix
from repro.exceptions import ServiceError, StorageError
from repro.service import ServiceClient
from repro.service.service import CorrelationService
from repro.service.wire import query_to_wire, result_from_wire
from repro.service.workers import (
    AttachmentCache,
    WorkerConfig,
    WorkerPool,
    _execute_query,
    rss_anon_bytes,
)
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.storage.shared import SegmentManager
from repro.timeseries.matrix import TimeSeriesMatrix

NUM_SERIES = 5
LENGTH = 128
BASIC = 16

QUERY = ThresholdQuery(start=0, end=LENGTH, window=64, step=32, threshold=0.4)


def _values(seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.4 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture
def store():
    chunk_store = ChunkStore(NUM_SERIES, chunk_columns=64)
    chunk_store.append(_values())
    return chunk_store


@pytest.fixture
def segment(tmp_path, store):
    """(manager, path, fingerprint) for the store's current snapshot."""
    layout = BasicWindowLayout(offset=0, size=BASIC, count=LENGTH // BASIC)
    sketch = BasicWindowSketch.build(store.read_all(), layout)
    manager = SegmentManager(tmp_path / "segments")
    path = manager.ensure(store, sketch, "fp-base", store.series_ids)
    yield manager, path, "fp-base"
    manager.close()


def _copies(path: Path, names):
    """One copy of the segment at ``path`` per name: the same snapshot in
    distinct directories, so each is its own warm key."""
    copies = []
    for name in names:
        target = path.parent / f"copy-{name}"
        shutil.copytree(path, target)
        copies.append(target)
    return copies


def _expected_edges(values: np.ndarray):
    session = CorrelationSession(
        TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
        basic_window_size=BASIC,
    )
    return session.run(QUERY).to_edges()


def _pool_available() -> bool:
    try:
        WorkerPool(1, WorkerConfig(basic_window_size=BASIC)).close()
    except ServiceError:
        return False
    return True


#: A real server process: two forked workers behind an HTTP listener.  It
#: reports its URL and worker pids on stdout, then serves until killed.
_SERVER_SCRIPT = """
import json, sys, threading
from repro.service import CorrelationServer, CorrelationService

service = CorrelationService(sys.argv[1], basic_window_size=16, service_workers=2)
with CorrelationServer(service) as server:
    workers = [handle.process.pid for handle in service._pool._handles]
    print(json.dumps({"url": server.url, "workers": workers}), flush=True)
    threading.Event().wait()
"""


def _process_running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # An exited orphan that nobody has reaped yet still answers signal 0.
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return not Path("/proc/self").exists()
    return stat.rpartition(")")[2].split()[0] != "Z"


def _job(spec, path, fingerprint):
    return {
        "op": "query", "dataset": "demo", "spec": spec,
        "segment_dir": str(path), "fingerprint": fingerprint,
    }


def _error_within(call, seconds: float = 5.0):
    """Run ``call`` on a thread; the error it raised, or fail the deadline."""
    raised = []

    def run():
        try:
            call()
        except BaseException as error:  # noqa: BLE001 — handed to the test
            raised.append(error)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"caller still blocked after {seconds}s"
    return raised[0] if raised else None


class TestWorkerProtocol:
    def test_executed_query_is_bit_identical(self, store, segment):
        _, path, fingerprint = segment
        attachments = AttachmentCache(WorkerConfig(basic_window_size=BASIC))
        reply = _execute_query(
            attachments, _job(query_to_wire(QUERY), path, fingerprint)
        )
        assert set(reply) == {
            "body", "plan", "wall_seconds", "rendered_floats", "fallback_floats",
        }
        assert reply["wall_seconds"] >= 0
        remote = result_from_wire(json.loads(reply["body"]))
        assert remote.to_edges() == _expected_edges(store.read_all())

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(ServiceError, match="at least 1"):
            WorkerPool(0, WorkerConfig())


def test_service_without_fork_serves_pool_less(tmp_path, store, monkeypatch):
    def no_fork():
        raise ValueError("cannot find context for 'fork'")

    monkeypatch.setattr(WorkerPool, "_context", staticmethod(no_fork))
    with pytest.raises(ServiceError) as excinfo:
        WorkerPool(1, WorkerConfig(basic_window_size=BASIC))
    assert excinfo.value.status == 503
    catalog = Catalog(tmp_path / "catalog")
    catalog.add_dataset("demo", store)
    with CorrelationService(
        catalog, basic_window_size=BASIC, service_workers=2
    ) as service:
        assert service.metrics()["worker_pool"] is None
        document = json.loads(service.query("demo", query_to_wire(QUERY)))
        assert "segments" not in service.dataset_info("demo")["stats"]
    assert result_from_wire(document).to_edges() == _expected_edges(store.read_all())


class TestAttachmentMemory:
    def test_the_attached_matrix_holds_no_values(self, segment):
        """A worker's matrix is a chunk-backed view of the segment's
        manifest: the right shape and ids, no raw column in the directory,
        and queries answered from the sketch never materialize it."""
        _, path, fingerprint = segment
        attachments = AttachmentCache(WorkerConfig(basic_window_size=BASIC))
        for threshold in (0.4, 0.6, 0.4):
            _execute_query(attachments, _job(
                query_to_wire(QUERY) | {"threshold": threshold}, path, fingerprint
            ))
        attachment = attachments.attachment_for(str(path), fingerprint)
        matrix = attachment.matrix
        assert isinstance(matrix, ChunkBackedMatrix)
        assert matrix.shape == (NUM_SERIES, LENGTH)
        assert matrix.series_ids == [f"s{i}" for i in range(NUM_SERIES)]
        assert not matrix.materialized
        assert not (path / "values.npy").exists()

    def test_a_raw_read_is_refused_naming_the_directory(self, segment):
        """Edge correction of an unaligned window reads raw columns, which
        a segment does not hold: the worker refuses by directory (the
        service never sends such a plan; it runs in process)."""
        _, path, fingerprint = segment
        attachments = AttachmentCache(
            WorkerConfig(engine="tsubasa", basic_window_size=BASIC)
        )
        unaligned = {
            "mode": "threshold", "start": 0, "end": LENGTH, "window": 50,
            "step": 7, "threshold": 0.4,
        }
        with pytest.raises(StorageError, match=f"segment at {path} holds statistics only"):
            _execute_query(attachments, _job(unaligned, path, fingerprint))
        with pytest.raises(StorageError, match=f"segment at {path} holds statistics only"):
            attachments.attachment_for(str(path), fingerprint).matrix.values

    def test_a_view_of_a_writable_array_is_still_copied(self):
        values = _values()
        view = values.view()
        view.setflags(write=False)
        matrix = TimeSeriesMatrix(view)
        assert not np.shares_memory(matrix.values, values)
        values[0, 0] += 1.0
        assert matrix.values[0, 0] != values[0, 0]


class TestContentCheck:
    def test_a_job_for_other_content_is_refused_naming_the_directory(self, segment):
        _, path, fingerprint = segment
        attachments = AttachmentCache(WorkerConfig(basic_window_size=BASIC))
        # A job whose fingerprint the directory's manifest does not carry
        # must 503, never answer from the wrong snapshot — cold or warm.
        for _ in range(2):
            with pytest.raises(ServiceError) as excinfo:
                _execute_query(
                    attachments, _job(query_to_wire(QUERY), path, "fp-other")
                )
            assert excinfo.value.status == 503
            assert str(path) in str(excinfo.value)
            attachments.attachment_for(str(path), fingerprint)

    def test_a_new_directory_is_attached_on_the_next_job(self, store, segment):
        manager, path, fingerprint = segment
        attachments = AttachmentCache(WorkerConfig(basic_window_size=BASIC))
        first = attachments.attachment_for(str(path), fingerprint)
        # Same directory: the warm attachment is reused (no re-open).
        assert attachments.attachment_for(str(path), fingerprint) is first

        # Append in the parent: new fingerprint, new directory.
        extra = np.random.default_rng(8).standard_normal((NUM_SERIES, 32))
        store.append(extra)
        layout = BasicWindowLayout(offset=0, size=BASIC, count=store.length // BASIC)
        sketch = BasicWindowSketch.build(store.read_all(), layout)
        new_path = manager.ensure(store, sketch, "fp-appended", store.series_ids)
        assert new_path != path
        second = attachments.attachment_for(str(new_path), "fp-appended")
        assert second is not first
        assert second.segment.path == new_path
        assert second.matrix.length == store.length
        # The superseded directory stays warm until LRU pressure drops it:
        # alternating layouts must not re-attach on every switch.
        assert attachments.attachment_for(str(path), fingerprint) is first

    def test_a_directory_that_cannot_attach_is_a_server_fault(self, segment):
        """A corrupt segment the parent named is the server's fault: a 500
        naming the directory, never a 400, and nothing stays attached."""
        _, path, fingerprint = segment
        (path / "manifest.json").write_text("{torn")
        attachments = AttachmentCache(WorkerConfig(basic_window_size=BASIC))
        for _ in range(2):
            with pytest.raises(ServiceError) as excinfo:
                _execute_query(attachments, _job(query_to_wire(QUERY), path, fingerprint))
            assert excinfo.value.status == 500
            assert f"cannot attach the segment at {path}" in str(excinfo.value)
        assert not attachments._attachments

    def test_a_removed_directory_is_forgotten_on_the_next_attach(self, store, segment):
        """Once the parent prunes an export, no job can name it again; the
        worker stops mapping it at its next attach instead of at LRU age."""
        manager, path, fingerprint = segment
        attachments = AttachmentCache(WorkerConfig(basic_window_size=BASIC))
        attachments.attachment_for(str(path), fingerprint)
        shutil.rmtree(path)
        layout = BasicWindowLayout(offset=0, size=BASIC, count=LENGTH // BASIC)
        sketch = BasicWindowSketch.build(store.read_all(), layout)
        new_path = manager.ensure(store, sketch, "fp-other", store.series_ids)
        attachments.attachment_for(str(new_path), "fp-other")
        assert list(attachments._attachments) == [str(new_path)]


@pytest.mark.skipif(not _pool_available(), reason="fork worker pool unavailable")
class TestProcessMode:
    def test_process_query_is_bit_identical(self, store, segment):
        _, path, fingerprint = segment
        with WorkerPool(2, WorkerConfig(basic_window_size=BASIC)) as pool:
            reply = pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
            remote = result_from_wire(json.loads(reply["body"]))
            assert remote.to_edges() == _expected_edges(store.read_all())
            assert pool.describe() == {
                "size": 2, "restarts": 0, "dispatched": 1, "warm_dispatches": 0,
            }

    def test_query_errors_cross_the_boundary_with_status(self, segment):
        _, path, fingerprint = segment
        with WorkerPool(1, WorkerConfig(basic_window_size=BASIC)) as pool:
            bad = query_to_wire(QUERY) | {"end": LENGTH * 10}
            with pytest.raises(ServiceError) as excinfo:
                pool.run_query("demo", bad, path, fingerprint)
        assert excinfo.value.status == 400  # a ReproError, not a worker crash

    def test_a_job_for_other_content_is_a_503_across_the_boundary(self, segment):
        _, path, _ = segment
        with WorkerPool(1, WorkerConfig(basic_window_size=BASIC)) as pool:
            with pytest.raises(ServiceError) as excinfo:
                pool.run_query("demo", query_to_wire(QUERY), path, "fp-other")
            assert pool._warm == {}  # a refusal warms nothing
        assert excinfo.value.status == 503
        assert str(path) in str(excinfo.value)

    def test_dead_worker_is_replaced_and_job_retried(self, store, segment):
        _, path, fingerprint = segment
        with WorkerPool(1, WorkerConfig(basic_window_size=BASIC)) as pool:
            (handle,) = pool._handles
            handle.process.terminate()
            handle.process.join(timeout=5)
            # The next job finds the dead worker, replaces it, and still
            # answers correctly on the replacement.
            reply = pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
            remote = result_from_wire(json.loads(reply["body"]))
            assert remote.to_edges() == _expected_edges(store.read_all())
            assert pool.describe()["restarts"] == 1

    def test_worker_rss_reports_every_worker(self, store, segment):
        _, path, fingerprint = segment
        with WorkerPool(2, WorkerConfig(basic_window_size=BASIC)) as pool:
            pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
            samples = pool.worker_rss()
            assert len(samples) == 2
            for sample in samples:
                assert sample["spawn"] is None or sample["spawn"] > 0
                assert sample["now"] is None or sample["now"] > 0

    def test_worker_anonymous_memory_stays_a_fraction_of_the_segment(
        self, tmp_path
    ):
        """Serving from shared segments must not copy them into each worker."""
        num_series, length, shapes = 48, 2048, 4
        rng = np.random.default_rng(20230810)
        base = rng.standard_normal(length)
        big = ChunkStore(num_series, chunk_columns=256)
        big.append(
            np.stack(
                [base + 0.45 * rng.standard_normal(length) for _ in range(num_series)]
            )
        )
        catalog = Catalog(tmp_path / "catalog")
        catalog.add_dataset("big", big)
        step = 4 * BASIC
        with CorrelationService(
            catalog, basic_window_size=BASIC, service_workers=2
        ) as service:
            # Each shifted range is its own layout, hence its own exported
            # segment.  A new shape goes to the least recently freed worker
            # and its repeat back to the same one (warm routing), so each
            # worker attaches and scans every other shape, twice.  The
            # threshold keeps the edge lists (private to a worker by nature)
            # too small to matter.
            for shift in range(shapes):
                request = query_to_wire(ThresholdQuery(
                    start=shift * step, end=length - (shapes - shift) * step,
                    window=16 * BASIC, step=step, threshold=0.95,
                ))
                service.query("big", request)
                service.query("big", request)
            samples = service._pool.worker_rss()
            segments = service.dataset_info("big")["stats"]["segments"]
        assert segments["exports"] == shapes
        count = length // BASIC
        footprint = 8 * (
            num_series * length                    # values
            + 2 * num_series * count               # per-series sums
            + (3 * count + 1) * num_series**2      # pairwise + prefix tensors
        )
        growths = []
        for sample in samples:
            if sample["spawn"] is None or sample["now"] is None:
                pytest.skip("RssAnon unavailable on this platform")
            growths.append(sample["now"] - sample["spawn"])
        # A worker that copied what it attached would grow by its
        # ``shapes // 2`` footprints; sharing leaves the per-attachment
        # values copy, scan memo and allocator slack.
        bound = 0.25 * footprint + 8 * 1024 * 1024
        assert max(growths) <= bound, (
            f"worker RssAnon grew {max(growths)} bytes, bound {bound:.0f} "
            f"(one segment is {footprint}); the segment is not being shared"
        )

    def test_workers_exit_when_the_server_is_sigkilled(self, tmp_path, store):
        catalog = Catalog(tmp_path / "catalog")
        catalog.add_dataset("demo", store)
        server = subprocess.Popen(
            [sys.executable, "-c", _SERVER_SCRIPT, str(catalog.root)],
            stdout=subprocess.PIPE,
        )
        workers = []
        try:
            ready = json.loads(server.stdout.readline())
            workers = ready["workers"]
            ServiceClient(ready["url"]).query("demo", QUERY)
            assert len(workers) == 2 and all(map(_process_running, workers))
            server.kill()  # SIGKILL: no close(), no atexit, no daemon reaping
            server.wait(timeout=5)
            deadline = time.monotonic() + 5
            while any(map(_process_running, workers)):
                assert time.monotonic() < deadline, "workers outlived the server"
                time.sleep(0.05)
        finally:
            server.kill()
            server.wait(timeout=5)
            server.stdout.close()
            for pid in workers:
                if _process_running(pid):
                    os.kill(pid, 9)

    def test_close_is_idempotent_and_stops_workers(self, segment):
        pool = WorkerPool(2, WorkerConfig(basic_window_size=BASIC))
        processes = [handle.process for handle in pool._handles]
        pool.close()
        pool.close()
        for process in processes:
            process.join(timeout=5)
            assert not process.is_alive()

    def test_run_query_after_close_answers_503(self, segment):
        _, path, fingerprint = segment
        pool = WorkerPool(1, WorkerConfig(basic_window_size=BASIC))
        pool.close()
        error = _error_within(
            lambda: pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
        )
        assert isinstance(error, ServiceError) and error.status == 503

    def test_closed_pooled_service_answers_503(self, tmp_path, store):
        catalog = Catalog(tmp_path / "catalog")
        catalog.add_dataset("demo", store)
        service = CorrelationService(
            catalog, basic_window_size=BASIC, service_workers=1
        )
        request = query_to_wire(QUERY)
        assert service.metrics()["worker_pool"]["size"] == 1
        assert json.loads(service.query("demo", request))["kind"] == "threshold"
        service.close()
        error = _error_within(lambda: service.query("demo", request))
        assert isinstance(error, ServiceError) and error.status == 503

    def test_close_wakes_callers_waiting_for_a_worker(self, segment):
        _, path, fingerprint = segment
        pool = WorkerPool(1, WorkerConfig(basic_window_size=BASIC))
        busy = pool._acquire()  # the only worker is out on another request
        statuses = []

        def wait_for_a_worker():
            try:
                pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
            except ServiceError as error:
                statuses.append(error.status)

        waiters = [
            threading.Thread(target=wait_for_a_worker, daemon=True)
            for _ in range(2)
        ]
        for waiter in waiters:
            waiter.start()
        deadline = time.monotonic() + 5
        while pool.describe()["dispatched"] < 2:  # both are past the gate
            assert time.monotonic() < deadline
            time.sleep(0.01)
        pool.close()
        for waiter in waiters:
            waiter.join(timeout=5)
            assert not waiter.is_alive(), "waiter still blocked after close()"
        assert statuses == [503, 503]
        assert not busy.process.is_alive()

    def test_request_racing_close_never_forks_a_replacement(
        self, segment, monkeypatch
    ):
        _, path, fingerprint = segment
        pool = WorkerPool(1, WorkerConfig(basic_window_size=BASIC))
        (process,) = [handle.process for handle in pool._handles]
        acquire = pool._acquire

        def acquire_then_close():
            handle = acquire()
            pool.close()  # lands while this request holds the worker
            return handle

        spawned = []
        monkeypatch.setattr(pool, "_acquire", acquire_then_close)
        monkeypatch.setattr(pool, "_spawn", lambda: spawned.append(1))
        error = _error_within(
            lambda: pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
        )
        assert isinstance(error, ServiceError) and error.status == 503
        assert spawned == [] and pool.describe()["restarts"] == 0
        assert not process.is_alive()


def _serving_handles(pool, monkeypatch):
    """The handles ``pool`` releases, in order: the worker each job ran on."""
    served = []
    release = pool._release

    def record(handle):
        served.append(handle)
        release(handle)

    monkeypatch.setattr(pool, "_release", record)
    return served


#: A dashboard refresh: the same range at three thresholds.
PANELS = (0.6, 0.7, 0.8)


def _panel_values(length: int) -> np.ndarray:
    """Two correlated blocks of series beside independent ones: at the panel
    thresholds the cross pairs never come near beta, so a second panel on
    the same window grid skips them through the first panel's ceiling."""
    rng = np.random.default_rng(11)
    blocks = [rng.standard_normal(length) for _ in range(2)]
    correlated = [blocks[i % 2] + 0.3 * rng.standard_normal(length) for i in range(6)]
    return np.stack(correlated + [rng.standard_normal(length) for _ in range(4)])


@pytest.mark.skipif(not _pool_available(), reason="fork worker pool unavailable")
class TestWarmRouting:
    def test_repeated_key_runs_on_the_same_worker(self, segment, monkeypatch):
        _, path, fingerprint = segment
        with WorkerPool(2, WorkerConfig(basic_window_size=BASIC)) as pool:
            served = _serving_handles(pool, monkeypatch)
            for _ in range(3):
                pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
            assert served[0] is served[1] is served[2]
            assert pool.describe()["warm_dispatches"] == 2
            # A job for another directory takes the other, least recently
            # freed worker, as a FIFO pool would.
            (other,) = _copies(path, ["other"])
            pool.run_query("demo", query_to_wire(QUERY), other, fingerprint)
            assert served[3] is not served[0]

    def test_a_busy_warm_worker_is_never_waited_for(self, segment, monkeypatch):
        _, path, fingerprint = segment
        with WorkerPool(2, WorkerConfig(basic_window_size=BASIC)) as pool:
            pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
            warm = pool._take_warm(str(path))
            assert warm is not None  # held: out on another request
            (other,) = [h for h in pool._handles if h is not warm]
            assert pool._take_warm(str(path)) is None

            def no_waiting():
                raise AssertionError("waited for a worker while one was free")

            monkeypatch.setattr(pool._freed, "wait", no_waiting)
            served = _serving_handles(pool, monkeypatch)
            reply = pool.run_query("demo", query_to_wire(QUERY), path, fingerprint)
            assert served == [other]
            assert reply["plan"]
            pool._release(warm)
            assert pool._acquire() is other  # least recently freed first

    def test_a_replaced_worker_leaves_the_map(self, segment):
        _, path, fingerprint = segment
        a, b, c = map(str, _copies(path, "abc"))
        with WorkerPool(2, WorkerConfig(basic_window_size=BASIC)) as pool:
            for directory in (a, b, c):  # a and c on one worker, b on the other
                pool.run_query("demo", query_to_wire(QUERY), directory, fingerprint)
            dead = pool._warm[a]
            assert pool._warm[c] is dead
            assert pool._warm[b] is not dead
            dead.process.kill()
            dead.process.join(timeout=5)
            pool.run_query("demo", query_to_wire(QUERY), a, fingerprint)
            assert pool.describe()["restarts"] == 1
            assert dead not in pool._warm.values()
            assert set(pool._warm) == {a, b}
            assert all(handle in pool._handles for handle in pool._warm.values())

    def test_the_map_is_bounded_least_recent_first(self, segment):
        _, path, fingerprint = segment
        with WorkerPool(2, WorkerConfig(basic_window_size=BASIC)) as pool:
            bound = pool.size * AttachmentCache.CAPACITY
            directories = [str(d) for d in _copies(path, range(bound + 3))]
            for directory in directories:
                pool.run_query("demo", query_to_wire(QUERY), directory, fingerprint)
                assert len(pool._warm) <= bound
            assert list(pool._warm) == directories[-bound:]

    def test_concurrent_callers_lose_and_duplicate_no_worker(self, segment):
        """More callers than cores, switching often: every job answers, and
        afterwards each worker is free exactly once."""
        _, path, fingerprint = segment
        directories = _copies(path, range(3))
        answers, errors = [], []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(2, WorkerConfig(basic_window_size=BASIC)) as pool:

                def caller(index):
                    try:
                        for round_ in range(8):
                            reply = pool.run_query(
                                "demo", query_to_wire(QUERY),
                                directories[(index + round_) % 3], fingerprint,
                            )
                            answers.append(json.loads(reply["body"])["windows"])
                    except BaseException as error:  # noqa: BLE001 — reported below
                        errors.append(error)

                callers = [
                    threading.Thread(target=caller, args=(i,), daemon=True)
                    for i in range(6)
                ]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), "a caller never got a worker"
                described = pool.describe()
                free = list(pool._free)
                handles = list(pool._handles)
        finally:
            sys.setswitchinterval(switch)
        assert errors == []
        assert len(answers) == 48 and all(a == answers[0] for a in answers)
        assert described["dispatched"] == 48
        assert 0 < described["warm_dispatches"] <= 48
        assert len(free) == 2 and set(map(id, free)) == set(map(id, handles))

    def test_refresh_panels_read_the_first_panels_ceiling(self, tmp_path):
        """After an append, panels 2 and 3 go where panel 1 recorded."""
        length, extra = 256, 32
        values = _panel_values(length + extra)
        services = []
        for name, workers in (("pooled", 2), ("inline", None)):
            store = ChunkStore(len(values), chunk_columns=64)
            store.append(values[:, :length])
            catalog = Catalog(tmp_path / name)
            catalog.add_dataset("demo", store)
            services.append(CorrelationService(
                catalog, basic_window_size=BASIC, service_workers=workers
            ))
        pooled, inline = services
        try:
            assert pooled.metrics()["worker_pool"]["size"] == 2
            answers = []
            for service in services:
                service.append("demo", {"columns": values[:, length:].T.tolist()})
                answers.append([
                    json.loads(service.query("demo", {
                        "mode": "threshold", "start": 0, "end": length + extra,
                        "window": 64, "step": 32, "threshold": beta,
                        "include_edges": True,
                    }))
                    for beta in PANELS
                ])
            warm_dispatches = pooled.metrics()["worker_pool"]["warm_dispatches"]
        finally:
            for service in services:
                service.close()
        for panel, (remote, local) in enumerate(zip(*answers)):
            skipped = remote["stats"]["extra"]["ceiling_skipped_pairs"]
            assert (skipped > 0) == (panel > 0), (panel, skipped)
            assert remote["edges"] == local["edges"]
            assert (
                remote["stats"]["extra"]["verified_evaluations"]
                == local["stats"]["extra"]["verified_evaluations"]
            )
        assert any(remote["edges"] for remote in answers[0])
        assert warm_dispatches == 2


def test_rss_anon_bytes_reads_proc():
    rss = rss_anon_bytes()
    # On Linux /proc is present; elsewhere the helper degrades to None.
    assert rss is None or rss > 0
