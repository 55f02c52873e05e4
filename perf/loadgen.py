"""HTTP load generation: a closed loop of C clients, and an open-loop feeder.

Request bodies are encoded before the clock starts and responses are kept
as raw bytes, verified off the clock.  A request that cannot be sent or
read (dead server, reset connection) is recorded as a failure — it counts
against ``error_rate`` — and the client reconnects for the next op, so a
dead server turns the remaining ops into fast failures, not a crash.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perf.trace import OP_HEADER

REQUEST_TIMEOUT = 60.0


@dataclass
class Exchange:
    """One request as the client saw it (times are ``perf_counter`` seconds)."""

    op_id: str
    sent: float
    done: float
    status: Optional[int]
    body: Optional[bytes]
    error: Optional[str] = None
    #: Open loop only: when the request was scheduled to be sent.
    due: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.body is not None

    @property
    def latency(self) -> float:
        return self.done - self.sent


class Client:
    """One keep-alive connection that survives a failed exchange."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._connection: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, payload: bytes, op_id: str, due: Optional[float] = None) -> Exchange:
        sent = time.perf_counter()
        try:
            if self._connection is None:
                self._connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT
                )
            self._connection.request(
                "POST",
                path,
                body=payload,
                headers={"Content-Type": "application/json", OP_HEADER: op_id},
            )
            reply = self._connection.getresponse()
            body = reply.read()
            done = time.perf_counter()
            if reply.will_close:
                self.close()
            return Exchange(op_id, sent, done, reply.status, body, due=due)
        except (OSError, http.client.HTTPException) as error:
            done = time.perf_counter()
            self.close()
            return Exchange(op_id, sent, done, None, None, error=repr(error), due=due)

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def run_closed(
    port: int,
    requests: Sequence[Tuple[str, str, bytes]],
    clients: int,
    deadline: float = math.inf,
    minimum: int = 0,
) -> Tuple[List[Exchange], float]:
    """``clients`` threads each send their next request when the last returns.

    ``requests`` are ``(op_id, path, payload)`` taken in order by whichever
    client is free.  Once ``deadline`` seconds have passed and ``minimum``
    requests have been taken, the rest are dropped: a slow host shortens
    the run instead of overrunning it.  Returns the exchanges of the
    requests sent (in op order) and when the first could be sent.
    """
    cursor = iter(enumerate(requests))
    lock = threading.Lock()
    results: List[Optional[Exchange]] = [None] * len(requests)

    def worker() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                if item[0] >= minimum and time.perf_counter() - started > deadline:
                    return
                index, (op_id, path, payload) = item
                results[index] = client.post(path, payload, op_id)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in results if r is not None], started


@dataclass
class Schedule:
    """Due times of an open-loop feed and how late the generator ran."""

    period: float
    started: float = 0.0
    lateness: List[float] = field(default_factory=list)

    def due(self, index: int) -> float:
        return self.started + index * self.period

    def wait_until_due(self, index: int, free_at: float = 0.0) -> float:
        """Sleep until op ``index`` is due; record and return its lateness.

        Lateness is the generator's own: how long after the later of the due
        time and ``free_at`` — when its connection came free of the previous
        op — the op could be sent, that is, a slow wake-up.  The wait for a
        previous op still in flight is the server's doing, not the
        generator's; it reaches the op's latency, which is timed from the
        due time, and not this number.
        """
        due = self.due(index)
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late = max(0.0, time.perf_counter() - max(due, free_at))
        self.lateness.append(late)
        return late


def run_open_append(
    port: int,
    appends: Sequence[Tuple[str, bytes, int]],
    period: float,
    append_path: str,
    query_path: str,
    refresh_bodies,
    deadline: float = math.inf,
    minimum: int = 0,
) -> Tuple[List[Exchange], List[Tuple[Exchange, int, int]], Schedule]:
    """Post appends on a schedule; refresh the dashboard after each one.

    ``appends`` are ``(op_id, payload, length_after)``.  The feeder owns one
    connection and never waits for the reader (open loop).  Each
    acknowledged append triggers, on a second connection, the dashboard's
    refresh at the new length: the payloads of ``refresh_bodies(length)``,
    posted in turn.  A reader that has fallen behind skips to the newest
    acknowledged length, as a dashboard would.  Once ``deadline`` seconds
    of feed have passed and ``minimum`` appends are posted, the rest are
    dropped (see :func:`run_closed`).  Returns the append exchanges, the
    ``(query exchange, length, position in its refresh)`` triples and the
    schedule.
    """
    append_results: List[Exchange] = []
    query_results: List[Tuple[Exchange, int, int]] = []
    schedule = Schedule(period)
    news = threading.Condition()
    state = {"length": None, "fed": False}

    def feeder() -> None:
        client = Client(port)
        free_at = 0.0
        try:
            for index, (op_id, payload, length_after) in enumerate(appends):
                if index >= minimum and time.perf_counter() - schedule.started > deadline:
                    break
                schedule.wait_until_due(index, free_at)
                exchange = client.post(append_path, payload, op_id, due=schedule.due(index))
                free_at = exchange.done
                append_results.append(exchange)
                if exchange.ok:
                    with news:
                        state["length"] = length_after
                        news.notify()
        finally:
            client.close()
            with news:
                state["fed"] = True
                news.notify()

    def reader() -> None:
        client = Client(port)
        seen = None
        try:
            while True:
                with news:
                    news.wait_for(lambda: state["length"] != seen or state["fed"])
                    if state["length"] == seen:
                        return  # the feed has ended and its last append is answered
                    seen = state["length"]  # fallen behind: the newest length wins
                for position, payload in enumerate(refresh_bodies(seen)):
                    op_id = f"q{len(query_results)}"
                    query_results.append((client.post(query_path, payload, op_id), seen, position))
        finally:
            client.close()

    threads = [threading.Thread(target=feeder), threading.Thread(target=reader)]
    schedule.started = time.perf_counter() + 0.05
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return append_results, query_results, schedule


def encode(document: Dict[str, object]) -> bytes:
    return json.dumps(document).encode("utf-8")
