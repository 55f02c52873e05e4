"""Open-loop accounting: due times, lateness, and freshness inputs."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perf import loadgen


def test_schedule_due_times_and_lateness():
    schedule = loadgen.Schedule(period=0.05)
    schedule.started = time.perf_counter()
    assert schedule.due(3) == pytest.approx(schedule.started + 0.15)
    on_time = schedule.wait_until_due(0)            # already due: no sleep, barely late
    assert on_time < 0.02
    time.sleep(0.12)                                # a stall swallows op 1's due time
    late = schedule.wait_until_due(1)
    assert late == pytest.approx(time.perf_counter() - schedule.due(1), abs=0.02)
    assert late >= 0.06
    before = time.perf_counter()
    assert schedule.wait_until_due(4) < 0.02        # not yet due: sleeps up to it
    assert time.perf_counter() - before >= 0.02
    assert schedule.lateness == [on_time, late, schedule.lateness[2]]
    # Waiting for the previous op to come back is not the generator's lateness.
    time.sleep(0.06)
    assert schedule.wait_until_due(5, free_at=time.perf_counter()) < 0.02


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/append":
            if body.get("stall"):
                time.sleep(0.15)
            reply = {"ok": True}
        else:
            time.sleep(0.03)
            reply = {"end": body["end"]}
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture()
def port():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


def test_open_loop_times_appends_from_their_due_time(port):
    period = 0.1
    # The second append stalls for 1.5 periods, so the third is sent late:
    # its latency counts from when it was due, not from when it was sent.
    appends = [
        (f"a{i}", loadgen.encode({"stall": i == 1}), 100 + i) for i in range(4)
    ]
    append_results, query_results, schedule = loadgen.run_open_append(
        port, appends, period, "/append", "/query",
        lambda length: [loadgen.encode({"end": length, "panel": k}) for k in range(2)],
    )
    assert [e.ok for e in append_results] == [True] * 4
    dues = [e.due for e in append_results]
    assert [b - a for a, b in zip(dues, dues[1:])] == pytest.approx([period] * 3)
    late_append = append_results[2]
    assert late_append.sent - late_append.due >= 0.04
    assert schedule.lateness[2] < 0.03  # the server's stall, not the generator's
    assert late_append.done - late_append.due >= late_append.latency + 0.04
    assert all(e.sent >= e.due for e in append_results)
    # An acknowledged append triggers one refresh — both of its queries, in
    # turn — at its length; a reader still busy when the next append lands
    # (the stall bunches 101-103 up) skips to the newest length.
    answered = [(length, position) for exchange, length, position in query_results if exchange.ok]
    lengths = sorted({length for length, _ in answered})
    assert answered == [(length, k) for length in lengths for k in range(2)]
    assert lengths[:2] == [100, 101] and lengths[-1] == 103


def test_dead_server_fails_ops_instead_of_raising():
    exchanges, _ = loadgen.run_closed(1, [("q0", "/x", b"{}"), ("q1", "/x", b"{}")], clients=2)
    assert len(exchanges) == 2 and not any(e.ok for e in exchanges)
    assert all(e.error for e in exchanges)


def test_deadline_drops_the_ops_not_yet_sent(port):
    requests = [(f"q{i}", "/query", loadgen.encode({"end": i})) for i in range(40)]  # 30 ms each
    exchanges, started = loadgen.run_closed(port, requests, clients=1, deadline=0.1, minimum=2)
    assert 2 <= len(exchanges) < 10 and all(e.ok for e in exchanges)
    assert [e.op_id for e in exchanges] == [f"q{i}" for i in range(len(exchanges))]
    assert started <= exchanges[0].sent and exchanges[-1].sent - started < 0.3
    # The minimum is sent even when the deadline has already passed.
    exchanges, _ = loadgen.run_closed(port, requests, clients=1, deadline=0.0, minimum=3)
    assert len(exchanges) == 3
    appends = [(f"a{i}", loadgen.encode({}), 100 + i) for i in range(20)]
    append_results, query_results, _ = loadgen.run_open_append(
        port, appends, 0.05, "/append", "/query",
        lambda length: [loadgen.encode({"end": length})], deadline=0.12, minimum=2,
    )
    assert 2 <= len(append_results) <= 5
    # The last append sent is still answered.
    assert query_results[-1][1] == 100 + len(append_results) - 1
