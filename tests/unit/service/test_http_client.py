"""End-to-end tests of the HTTP transport and the typed client.

One ephemeral-port server per module; every test drives it through
:class:`ServiceClient` (or raw urllib for protocol-level cases), so the
route table, the error envelope and the client's decoding are all exercised
over a real socket.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import CorrelationSession, ThresholdQuery
from repro.exceptions import ServiceError
from repro.service import CorrelationServer, CorrelationService, ServiceClient
from repro.service import http as service_http
from repro.storage.catalog import Catalog
from repro.storage.chunk_store import ChunkStore
from repro.timeseries.matrix import TimeSeriesMatrix

NUM_SERIES = 5
LENGTH = 192
BASIC = 16

QUERY = ThresholdQuery(start=0, end=LENGTH, window=64, step=32, threshold=0.4)


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(13)
    base = rng.standard_normal(LENGTH)
    return np.stack(
        [base + 0.4 * rng.standard_normal(LENGTH) for _ in range(NUM_SERIES)]
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory, values):
    store = ChunkStore(NUM_SERIES, chunk_columns=64)
    store.append(values)
    catalog = Catalog(tmp_path_factory.mktemp("catalog"))
    catalog.add_dataset("demo", store, description="http test data")
    server = CorrelationServer(
        CorrelationService(catalog, basic_window_size=BASIC)
    )
    with server:
        yield server


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


class TestRoutes:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["datasets"] == 1

    def test_datasets_and_detail(self, client):
        (dataset,) = client.datasets()
        assert dataset["name"] == "demo"
        detail = client.dataset("demo")
        assert detail["num_series"] == NUM_SERIES
        assert "sketch_cache" in detail["stats"]

    def test_query_result_is_bit_identical_to_local_session(self, client, values):
        remote = client.query("demo", QUERY)
        local = CorrelationSession(
            TimeSeriesMatrix(values, series_ids=[f"s{i}" for i in range(NUM_SERIES)]),
            basic_window_size=BASIC,
        ).run(QUERY)
        assert remote.query == local.query
        assert remote.to_edges() == local.to_edges()
        assert remote.num_windows == local.num_windows

    def test_query_raw_carries_plan_and_dataset(self, client):
        document = client.query_raw("demo", QUERY, include_edges=True)
        assert document["dataset"] == "demo"
        assert document["plan"].startswith("plan[threshold]")
        assert isinstance(document["edges"], list)

    def test_append_and_watch_round_trip(self, client):
        watch = client.watch("demo", QUERY)
        assert watch["emitted_windows"] == QUERY.num_windows
        response = client.append("demo", np.zeros((NUM_SERIES, 32)))
        assert response["length"] == LENGTH + 32
        results = client.watch_results("demo", watch["id"])
        assert results["emitted_windows"] == QUERY.num_windows + 1


class TestErrorMapping:
    def test_unknown_dataset_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.query("ghost", QUERY)
        assert excinfo.value.status == 404
        assert "unknown dataset" in str(excinfo.value)

    def test_invalid_query_is_400_with_library_error_type(self, client):
        bad = {"mode": "threshold", "start": 0, "end": 10 * LENGTH, "window": 64,
               "step": 32, "threshold": 0.4}
        with pytest.raises(ServiceError) as excinfo:
            client.query("demo", bad)
        assert excinfo.value.status == 400
        assert "QueryValidationError" in str(excinfo.value)

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/datasets/demo/query", timeout=10)
        assert excinfo.value.code == 405

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/datasets/demo/query",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["type"] == "ServiceError"

    def test_deeply_nested_json_body_is_400(self, server):
        # The decoder recurses once per nesting level, so this overflows it.
        request = urllib.request.Request(
            f"{server.url}/datasets/demo/query",
            data=b"[" * 100_000,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["type"] == "ServiceError"
        assert "not valid JSON" in body["error"]["message"]

    @staticmethod
    def _post_raw(server, body: bytes):
        request = urllib.request.Request(
            f"{server.url}/datasets/demo/query",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        return excinfo.value.code, json.loads(excinfo.value.read().decode("utf-8"))

    def test_number_too_large_for_a_float_is_400(self, server):
        body = (
            b'{"mode": "threshold", "start": 0, "end": 192, "window": 64, '
            b'"step": 32, "threshold": 1' + b"0" * 400 + b"}"
        )
        status, document = self._post_raw(server, body)
        assert status == 400
        assert document["error"]["type"] == "ServiceError"
        assert "'threshold' is too large for a float" in document["error"]["message"]

    def test_integer_past_the_digit_limit_is_400(self, server):
        # json.loads refuses int literals over 4300 digits with a ValueError.
        body = b'{"mode": "threshold", "window": 1' + b"0" * 5000 + b"}"
        status, document = self._post_raw(server, body)
        assert status == 400
        assert document["error"]["type"] == "ServiceError"
        assert "not valid JSON" in document["error"]["message"]

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/datasets/demo/query", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("declared", ["abc", "-5"])
    def test_malformed_content_length_is_400(self, server, declared):
        # Raw socket: http.client and urllib both refuse to send such a header.
        request = (
            "POST /datasets/demo/query HTTP/1.1\r\n"
            f"Host: {server.host}\r\nContent-Length: {declared}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            raw.sendall(request)
            response = http.client.HTTPResponse(raw)
            response.begin()
            body = json.loads(response.read())
        assert response.status == 400
        assert body["error"]["type"] == "ServiceError"
        assert "Content-Length" in body["error"]["message"]

    def test_error_responses_close_the_connection(self, server):
        # Errors can leave an unread request body on a keep-alive socket
        # (e.g. a 405 on a POST), so every error response must carry
        # Connection: close — otherwise the leftover bytes desynchronize the
        # next request on the same connection.
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request(
                "GET", "/datasets/demo/query", body=b'{"mode": "threshold"}'
            )
            response = connection.getresponse()
            assert response.status == 405
            response.read()
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_success_responses_keep_the_connection_alive(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for _ in range(2):  # two requests over one keep-alive connection
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
                assert response.getheader("Connection") != "close"
        finally:
            connection.close()

    def test_unreachable_server_is_503(self):
        unreachable = ServiceClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError) as excinfo:
            unreachable.health()
        assert excinfo.value.status == 503


def test_shed_request_is_a_429_with_the_retry_hint_on_the_wire(server, parked_scan):
    started, release = parked_scan
    limited = CorrelationServer(
        CorrelationService(
            server.service.catalog, basic_window_size=BASIC,
            admission_queue_limit=1, retry_after_seconds=0.5,
        )
    )
    with limited:
        client = ServiceClient(limited.url)
        served = []
        leader = threading.Thread(
            target=lambda: served.append(client.query("demo", QUERY))
        )
        leader.start()
        assert started.wait(timeout=10)  # the leader holds the only slot
        with pytest.raises(ServiceError) as excinfo:
            client.query("demo", QUERY)
        release.set()
        leader.join(timeout=10)
        stats = client.metrics()["datasets"]["demo"]
    assert excinfo.value.status == 429
    assert excinfo.value.retry_after == 0.5  # Retry-After survived the wire
    assert len(served) == 1
    assert stats["admission"]["shed"] == 1
    assert stats["queries"] == 1


@pytest.fixture
def accepted(monkeypatch):
    """The ``TCP_NODELAY`` value of each connection the server accepts."""
    values = []
    setup = service_http._ServiceHandler.setup

    def recording_setup(handler):
        setup(handler)
        values.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(service_http._ServiceHandler, "setup", recording_setup)
    return values


class TestConnections:
    def test_every_accepted_connection_has_tcp_nodelay(self, server, accepted):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
        finally:
            connection.close()
        with pytest.raises(urllib.error.HTTPError) as excinfo:  # an error response's too
            urllib.request.urlopen(f"{server.url}/nope", timeout=10)
        excinfo.value.close()
        assert len(accepted) == 2
        assert all(accepted)

    def test_keep_alive_responses_do_not_wait_for_a_delayed_ack(self, server):
        # With Nagle on, the body of every response on a reused connection
        # waited for the client's delayed ACK of the headers: >= 40 ms each
        # on Linux, against well under a millisecond for /healthz.
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        latencies = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                connection.getresponse().read()
                latencies.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert sorted(latencies)[len(latencies) // 2] < 0.02


class TestServerLifecycle:
    def test_start_twice_rejected(self, server):
        with pytest.raises(ServiceError, match="already running"):
            server.start()

    def test_stop_is_idempotent(self, tmp_path):
        spare = CorrelationServer(CorrelationService(Catalog(tmp_path)))
        spare.start()
        spare.stop()
        spare.stop()
