"""HTTP transport for the correlation query service (stdlib only).

A :class:`~http.server.ThreadingHTTPServer` fronting one
:class:`~repro.service.service.CorrelationService`.  The handler is a pure
JSON shim: it parses the path and body, calls the matching service method,
and writes the returned document (query answers come back as finished
bytes and are written as they are) — every piece of domain logic (sessions,
coalescing, standing queries) lives in the service layer so it is testable
without sockets.

Routes::

    GET  /healthz                          liveness + version + dataset count
    GET  /metrics                          service-wide observability document
    GET  /datasets                         catalog inventory
    GET  /datasets/{name}                  one dataset + runtime statistics
    POST /datasets/{name}/query            unified query spec -> result document
    POST /datasets/{name}/append           stream new time steps in
    POST /datasets/{name}/watch            register a standing threshold query
    GET  /datasets/{name}/watch/{id}       windows the standing query emitted

Error mapping: :class:`~repro.exceptions.ServiceError` carries its own
status (404 for unknown datasets/routes, 429 for shed load, 413 for an
oversized body, 400 otherwise — a malformed ``Content-Length`` included);
every other :class:`~repro.exceptions.ReproError` is a 400 (the request was
understood but invalid); anything else is a 500.  Error bodies are always
``{"error": {"type": ..., "message": ...}}``; a shed 429 additionally sends
a ``Retry-After`` header (the service's ``retry_after_seconds``).

Connections: successful responses keep an HTTP/1.1 connection alive, and
every accepted connection has ``TCP_NODELAY`` set.  A response goes out as
two writes (headers, then body); under Nagle's algorithm the body waits in
the kernel for the ACK of the headers, which a client sending requests
back to back on one connection holds for its delayed-ACK timer, so each
such response arrived ~44 ms late.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import ReproError, ServiceError
from repro.service.service import CorrelationService

#: Cap on accepted request bodies (a threshold sweep's append bursts are
#: far below this; the cap exists so a bad client cannot exhaust memory).
MAX_BODY_BYTES = 64 * 1024 * 1024

_ROUTES: List[Tuple[str, re.Pattern, str]] = [
    ("GET", re.compile(r"^/healthz$"), "health"),
    ("GET", re.compile(r"^/metrics$"), "metrics"),
    ("GET", re.compile(r"^/datasets$"), "datasets"),
    ("GET", re.compile(r"^/datasets/([^/]+)$"), "dataset_info"),
    ("POST", re.compile(r"^/datasets/([^/]+)/query$"), "query"),
    ("POST", re.compile(r"^/datasets/([^/]+)/append$"), "append"),
    ("POST", re.compile(r"^/datasets/([^/]+)/watch$"), "watch"),
    ("GET", re.compile(r"^/datasets/([^/]+)/watch/([^/]+)$"), "watch_results"),
]


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`CorrelationService`."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    #: ``StreamRequestHandler.setup`` sets ``TCP_NODELAY`` on the accepted
    #: socket before the first request is read (module docstring).
    disable_nagle_algorithm = True

    # --------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002 (stdlib name)
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _write_json(self, status: int, document: Union[bytes, Dict[str, object]]) -> None:
        # Query answers arrive already encoded (``CorrelationService.query``).
        body = document if isinstance(document, bytes) else json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in getattr(self, "_extra_headers", []):
            self.send_header(name, value)
        self._extra_headers = []
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _write_error(
        self,
        status: int,
        error_type: str,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        # An error may leave an unread request body on the (HTTP/1.1
        # keep-alive) socket — e.g. the 413 cap rejects before reading, a 405
        # hits a POST whose body was never consumed.  Leftover bytes would be
        # parsed as the next request line, desynchronizing the connection, so
        # every error response closes it.
        self.close_connection = True
        self._extra_headers = (
            [("Retry-After", f"{retry_after:g}")] if retry_after is not None else []
        )
        self._write_json(status, {"error": {"type": error_type, "message": message}})

    def _read_body(self) -> Dict[str, object]:
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise ServiceError(
                f"Content-Length must be a non-negative integer, got {declared!r}"
            )
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} byte cap",
                status=413,
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ServiceError("request body must be a JSON object")
        # ValueError covers bad UTF-8, malformed JSON and integer literals
        # past Python's int-digit limit; RecursionError, deep nesting.
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from error

    # ---------------------------------------------------------------- routing
    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        service: CorrelationService = self.server.service
        for route_method, pattern, endpoint in _ROUTES:
            match = pattern.match(path)
            if not match:
                continue
            if route_method != method:
                self._write_error(405, "MethodNotAllowed",
                                  f"{method} is not supported on {path}")
                return
            try:
                handler: Callable = getattr(service, endpoint)
                if method == "POST":
                    document = handler(*match.groups(), self._read_body())
                else:
                    document = handler(*match.groups())
                self._write_json(200, document)
            except ServiceError as error:
                self._write_error(
                    error.status,
                    type(error).__name__,
                    str(error),
                    retry_after=error.retry_after,
                )
            except ReproError as error:
                self._write_error(400, type(error).__name__, str(error))
            except BrokenPipeError:  # client went away mid-response
                pass
            except Exception as error:  # noqa: BLE001 — last-resort mapping
                self._write_error(500, type(error).__name__, str(error))
            return
        self._write_error(404, "NotFound", f"no route for {method} {path}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        self._dispatch("POST")


class CorrelationServer:
    """The long-lived server: a threading HTTP front over one service.

    ``port=0`` (the default) binds an ephemeral port — read it back from
    :attr:`port`/:attr:`url` — which is what the docs doctest, the tests and
    the CI smoke job use to run an in-process server without port
    collisions.  Use :meth:`start`/:meth:`stop` for a background server (or
    the context-manager form), :meth:`serve_forever` for a foreground one
    (the ``repro serve`` CLI).
    """

    def __init__(
        self,
        service: CorrelationService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _ServiceHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = service
        self._httpd.verbose = verbose
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ where
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ---------------------------------------------------------------- running
    def start(self) -> "CorrelationServer":
        """Serve in a daemon background thread; returns self for chaining."""
        if self._thread is not None:
            raise ServiceError("server is already running")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self.service.close()

    def stop(self) -> None:
        """Shut the server down, release the socket and close the service's
        worker pool and segment exports (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "CorrelationServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
