"""Stdlib-only HTTP front end for the simulation service.

Built on ``http.server.ThreadingHTTPServer``: each request runs on its
own thread, but every handler only calls the thread-safe surface of
:class:`~repro.service.scheduler.JobScheduler` (admission lock +
snapshots), so the scheduler thread remains the single writer of the
cache, the checkpointed journal and the telemetry collector.

Routes:

==========================================  ===============================
``POST /jobs``                              submit a grid spec -> 202 job
``GET /jobs``                               list jobs (no per-point results)
``GET /jobs/{id}``                          status + partial results
``GET /jobs/{id}/events?after=N&timeout=S`` long-poll progress events
``POST /jobs/{id}/cancel``                  request cancellation
``GET /healthz``                            liveness + queue depths
``GET /metrics``                            Prometheus text exposition
==========================================  ===============================

(``/metrics`` is plain text for scrapers and the one metrics endpoint:
it carries every counter, and ``/healthz`` the service block; every
other route is JSON.)

Errors: 400 malformed spec, 404 unknown job, 429/503 typed admission
rejections (body carries the machine-readable ``reason``; queue-full
responses include ``Retry-After``).

Connections are HTTP/1.1 and kept alive.  Every response after which
the daemon closes the connection carries ``Connection: close``, and a
connection that sends no request for :data:`IDLE_TIMEOUT_S` is closed,
so an abandoned client does not hold a handler thread.
"""

from __future__ import annotations

import json
import re
import socket
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..chaos.inject import fire as chaos_fire
from ..telemetry.logging import get_logger
from ..telemetry.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from .jobs import GridSpec, SpecError
from .scheduler import AdmissionError, JobScheduler, UnknownJobError

_LOG = get_logger("http")

#: Longest long-poll a single request may hold (clients re-poll).
MAX_POLL_S = 60.0

_JOB_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9._-]+)$")
_EVENTS_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9._-]+)/events$")
_CANCEL_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9._-]+)/cancel$")

#: Request body size bound: a grid spec is tiny; anything big is abuse.
MAX_BODY_BYTES = 64 * 1024

#: Seconds a kept-alive connection may wait for its next request before
#: the daemon closes it.  :class:`~repro.service.client.ServiceClient`
#: reconnects before sending once its connection has been idle for half
#: of this.
IDLE_TIMEOUT_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    #: a response is buffered, so its headers and body leave in one write
    #: when ``handle_one_request`` flushes it; with TCP_NODELAY a response
    #: larger than the buffer does not wait for the client's delayed ACK.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    @property
    def timeout(self) -> float:  # type: ignore[override]
        """Each connection's socket timeout: :data:`IDLE_TIMEOUT_S`,
        read as the connection opens."""
        return IDLE_TIMEOUT_S

    @property
    def scheduler(self) -> JobScheduler:
        return self.server.scheduler  # type: ignore[attr-defined]

    def handle_expect_100(self) -> bool:
        """The interim ``100 Continue`` leaves at once, unbuffered."""
        answer = super().handle_expect_100()
        self.wfile.flush()
        return answer

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:  # type: ignore[attr-defined]
            _LOG.info("request", client=self.address_string(),
                      line=format % args)

    def _send(self, status: int, payload: Dict[str, Any],
              headers: Optional[Dict[str, str]] = None) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"),
                        "application/json", headers)

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            # Announced, so a kept-alive client reconnects instead of
            # writing its next request into a closed socket.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **extra: Any) -> None:
        self._send(status, {"error": message, **extra})

    def _read_body(self) -> Any:
        """The request's JSON body; a missing ``Content-Length`` is empty.

        A negative, non-numeric or over-limit length is refused before
        any read.  The body then stays unread, so the connection cannot
        carry another request and closes after the 400, as after a body
        that ends before its length (never read as the empty spec).
        """
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            if length < 0:
                raise SpecError(f"bad Content-Length: {header!r}")
            raise SpecError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:
            self.close_connection = True
            raise SpecError(f"request body ended after {len(raw)} of"
                            f" {length} bytes")
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise SpecError("request body is not valid JSON") from None

    def _chaos_fault(self) -> bool:
        """Chaos injection at request entry (before any dispatch).

        Injecting *before* the scheduler sees the request keeps every
        faulted request idempotent to retry -- a 503'd or reset POST
        never half-submitted a job.  Returns True when the request was
        consumed by the fault.
        """
        rule = chaos_fire("http.request")
        if rule is None or rule.kind == "delay":
            return False  # delay already slept inside act(); proceed
        # Either fault consumes the request without reading its body, so
        # the connection cannot be reused for a follow-up request.
        self.close_connection = True
        if rule.kind == "http-503":
            # Admission-shaped body so clients map it onto their typed,
            # retryable rejection path.
            self._send(503, {
                "error": "admission",
                "reason": "injected-503",
                "message": "chaos: injected 503",
                "retry_after_s": 0.05,
            }, {"Retry-After": "0"})
        else:  # conn-reset
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        return True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self._chaos_fault():
            return
        parsed = urlparse(self.path)
        path, query = parsed.path, parse_qs(parsed.query)
        try:
            if path == "/healthz":
                self._send(200, self.scheduler.health())
            elif path == "/metrics":
                self._send_body(200,
                                self.scheduler.metrics_text().encode("utf-8"),
                                _PROM_CONTENT_TYPE)
            elif path == "/jobs":
                self._send(200, {"jobs": self.scheduler.jobs()})
            elif _JOB_ROUTE.match(path):
                job_id = _JOB_ROUTE.match(path).group(1)
                include = query.get("results", ["1"])[0] not in ("0", "false")
                self._send(200, self.scheduler.job(
                    job_id, include_results=include
                ))
            elif _EVENTS_ROUTE.match(path):
                self._get_events(_EVENTS_ROUTE.match(path).group(1), query)
            else:
                self._error(404, f"no such route: {path}")
        except UnknownJobError as exc:
            self._error(404, f"no such job: {exc.args[0]}")
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))

    def _get_events(self, job_id: str, query: Dict[str, list]) -> None:
        after = int(query.get("after", ["0"])[0])
        timeout_s = min(float(query.get("timeout", ["25"])[0]), MAX_POLL_S)
        events, job = self.scheduler.wait_events(
            job_id, after=after, timeout_s=timeout_s
        )
        next_after = events[-1]["seq"] if events else after
        self._send(200, {"events": events, "next": next_after, "job": job})

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self._chaos_fault():
            return
        path = urlparse(self.path).path
        try:
            if path == "/jobs":
                spec = GridSpec.from_dict(self._read_body())
                job = self.scheduler.submit(spec)
                self._send(202, job)
            elif _CANCEL_ROUTE.match(path):
                job_id = _CANCEL_ROUTE.match(path).group(1)
                self._send(200, self.scheduler.cancel(job_id))
            else:
                self._error(404, f"no such route: {path}")
        except SpecError as exc:
            self._error(400, str(exc))
        except AdmissionError as exc:
            headers = {}
            if exc.retry_after_s is not None:
                headers["Retry-After"] = str(int(exc.retry_after_s))
            self._send(exc.http_status, exc.to_dict(), headers)
        except UnknownJobError as exc:
            self._error(404, f"no such job: {exc.args[0]}")


class ServiceServer(ThreadingHTTPServer):
    """The daemon's HTTP server, carrying its scheduler reference."""

    daemon_threads = True
    #: a killed daemon should release its port immediately on restart.
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], scheduler: JobScheduler,
                 quiet: bool = False):
        super().__init__(address, _Handler)
        self.scheduler = scheduler
        self.quiet = quiet

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A request its client ended (a reset, a timeout) logs one line
        unless quiet; any other error keeps socketserver's traceback."""
        error = sys.exc_info()[1]
        if not isinstance(error, (ConnectionError, socket.timeout)):
            super().handle_error(request, client_address)
        elif not self.quiet:
            _LOG.info("client_gone", client=client_address[0],
                      error=type(error).__name__)


def make_server(scheduler: JobScheduler, host: str = "127.0.0.1",
                port: int = 0, quiet: bool = False) -> ServiceServer:
    """Bind (but do not serve) the HTTP front end; port 0 picks a free one."""
    return ServiceServer((host, port), scheduler, quiet=quiet)
