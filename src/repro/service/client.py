"""HTTP client for the simulation service (stdlib sockets only).

Used by the ``repro-sim submit`` CLI verb, the chaos drill, perfbench's
warm loop and the test suite, each over one kept-alive connection.
The client frames HTTP/1.1 itself: each request leaves in one write,
and each response is a status line, headers and a ``Content-Length``
body, read from one buffered reader.
Every transport or protocol problem surfaces as a typed exception so
callers can map outcomes to exit codes:

* :class:`AdmissionRejected` -- the daemon's typed 429/503 rejection,
  carrying its machine-readable ``reason`` (``queue-full``, ...);
* :class:`JobNotFound` -- 404 for an unknown job id;
* :class:`JobFailed` -- a waited-on job reached a terminal state other
  than ``done``;
* :class:`ServiceError` -- anything else (connection refused, a reset,
  a read timeout, a truncated or malformed response, HTTP 500s).

Retry policy (``retries > 0``): transient failures -- retryable
admission rejections (``queue-full``, ``stopped``, ``journal-error``),
5xx responses and connection-level errors (a refused connection, a
reset, a read timeout, a response cut short) -- are retried with
capped exponential backoff plus seeded jitter.  A malformed status or
header line is not retried.  The daemon's ``Retry-After``
hint, surfaced as ``retry_after_s`` on the exception, overrides the
exponential base when present.  ``rng`` and ``sleep`` are injectable so
tests control both the jitter and the clock.
"""

from __future__ import annotations

import json
import random
import re
import socket
import time
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..chaos.inject import recovered as chaos_recovered
from . import http_api
from .jobs import TERMINAL_STATES

#: Admission reasons worth retrying: pressure and transient daemon
#: states, never spec errors (those recur deterministically).
RETRYABLE_REASONS = frozenset({
    "queue-full",
    "stopped",
    "journal-error",
    "injected-503",
})


class ServiceError(Exception):
    """Transport- or protocol-level failure talking to the daemon."""

    #: whether a retry-enabled client may re-attempt the request.
    retryable = False
    #: the daemon's Retry-After hint in seconds, when one was sent.
    retry_after_s: Optional[float] = None


class AdmissionRejected(ServiceError):
    """The daemon refused the job (typed 429/503 admission response)."""

    def __init__(self, reason: str, message: str,
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class JobNotFound(ServiceError):
    """The daemon does not know this job id."""


class JobFailed(ServiceError):
    """A waited-on job finished in a non-``done`` state."""

    def __init__(self, job: Dict[str, Any]):
        super().__init__(
            f"job {job.get('job_id')} finished {job.get('state')}"
            + (f": {job['error']}" if job.get("error") else "")
        )
        self.job = job


def _retryable(message: str) -> ServiceError:
    """A transport failure a retry-enabled client may re-attempt."""
    error = ServiceError(message)
    error.retryable = True
    return error


def _parse_retry_after(headers: Dict[str, str]) -> Optional[float]:
    """The Retry-After header as seconds, when present and numeric."""
    raw = headers.get("retry-after")
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


def _json_object(raw: bytes) -> Optional[Dict[str, Any]]:
    """``raw`` decoded as a JSON object; None for anything else."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


#: What ``http.client`` refuses in a request target: a control
#: character, a space or DEL (``InvalidURL``), or a character past
#: ASCII (it cannot encode the request line).
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")


def _read_line(reader: BinaryIO, where: str) -> bytes:
    """One line of a response head, its line end included."""
    line = reader.readline(http_api.MAX_LINE + 1)
    if line.endswith(b"\n"):
        return line
    if len(line) > http_api.MAX_LINE:
        raise ServiceError(f"a response line from {where} is over"
                           f" {http_api.MAX_LINE} bytes")
    raise _retryable(f"connection to {where} closed mid-response")


def _read_response(reader: BinaryIO, where: str
                   ) -> Tuple[int, str, Dict[str, str], bytes]:
    """One response from ``reader``: status, reason, headers (names in
    lower case, the first of each kept) and its ``Content-Length`` body.

    A response cut short raises a retryable :class:`ServiceError`, a
    malformed one a non-retryable one.
    """
    line = _read_line(reader, where)
    version, _, rest = line.rstrip(b"\r\n").partition(b" ")
    code, _, reason = rest.partition(b" ")
    if not (version.startswith(b"HTTP/") and len(code) == 3
            and code.isdigit()):
        raise ServiceError(f"malformed status line from {where}: {line!r}")
    headers: Dict[str, str] = {}
    for _ in range(http_api.MAX_HEADERS):
        line = _read_line(reader, where)
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.partition(b":")
        if not (colon and name and name == name.strip()):
            raise ServiceError(f"malformed header line from {where}:"
                               f" {line!r}")
        headers.setdefault(name.decode("iso-8859-1").lower(),
                           value.strip().decode("iso-8859-1"))
    else:
        raise ServiceError(f"more than {http_api.MAX_HEADERS} response head"
                           f" lines from {where}")
    length = headers.get("content-length", "")
    if not (length.isascii() and length.isdigit()):
        raise ServiceError(f"response from {where} without a valid"
                           f" Content-Length: {length!r}")
    body = reader.read(int(length))
    if len(body) < int(length):
        raise _retryable(f"response from {where} ended after {len(body)}"
                         f" of {length} body bytes")
    return int(code), reason.decode("iso-8859-1"), headers, body


class ServiceClient:
    """Minimal JSON-over-HTTP client for one service daemon.

    A client is one kept-alive HTTP/1.1 connection, used from one thread
    at a time.  It reconnects before sending once the connection has
    been idle for half the daemon's
    :data:`~repro.service.http_api.IDLE_TIMEOUT_S`, so it never writes
    into a connection the daemon has dropped, and it never re-sends a
    request on its own (only ``retries`` does).  ``close()``, or the end
    of a ``with`` block, releases the connection; a later request
    reopens it.
    """

    def __init__(self, base_url: str = "http://127.0.0.1:8737",
                 timeout_s: float = 30.0, retries: int = 0,
                 backoff_s: float = 0.25, max_backoff_s: float = 10.0,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        url = urlsplit(self.base_url)
        self._prefix = url.path
        self._address = (url.hostname, url.port or 80)
        self._host = url.netloc
        self._sock: Optional[socket.socket] = None
        self._reader: Any = None  # the socket's buffered reader
        self._last_used = 0.0

    def close(self) -> None:
        """Close the kept-alive connection."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _retry_delay(self, attempt: int,
                     retry_after_s: Optional[float]) -> float:
        """Capped backoff honoring the daemon's Retry-After hint."""
        if retry_after_s is not None:
            base = retry_after_s
        else:
            base = self.backoff_s * (2 ** (attempt - 1))
        capped = min(base, self.max_backoff_s)
        return capped + self._rng.uniform(0.0, self.backoff_s / 2)

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout_s: Optional[float] = None) -> Dict[str, Any]:
        attempt = 0
        while True:
            try:
                payload = self._request_once(method, path, body, timeout_s)
            except JobNotFound:
                raise
            except AdmissionRejected as exc:
                if (attempt >= self.retries
                        or exc.reason not in RETRYABLE_REASONS):
                    raise
                delay_hint = exc.retry_after_s
            except ServiceError as exc:
                if attempt >= self.retries or not exc.retryable:
                    raise
                delay_hint = exc.retry_after_s
            else:
                if attempt:
                    chaos_recovered("http.request")
                return payload
            attempt += 1
            self._sleep(self._retry_delay(attempt, delay_hint))

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None,
                      timeout_s: Optional[float] = None) -> Dict[str, Any]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        payload = _json_object(self._exchange(method, path, data, timeout_s))
        if payload is None:
            raise ServiceError(f"malformed response from {method} {path}")
        return payload

    def _exchange(self, method: str, path: str,
                  data: Optional[bytes] = None,
                  timeout_s: Optional[float] = None) -> bytes:
        """One request over the kept-alive connection; the 2xx body.

        The request (head and body) leaves in one write.  An error status
        raises its typed exception.  Any failure closes the connection,
        so the next request starts on a fresh one, as does a response
        that says ``Connection: close``.
        """
        target = self._prefix + path
        if _BAD_TARGET.search(target):
            raise ServiceError(f"cannot send request path {target!r}:"
                               " control or non-ASCII character")
        if (self._sock is not None and time.monotonic() - self._last_used
                > http_api.IDLE_TIMEOUT_S / 2):
            self.close()  # the daemon may be about to drop it
        timeout = timeout_s or self.timeout_s
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
        if data is not None:
            head += ("Content-Type: application/json\r\n"
                     f"Content-Length: {len(data)}\r\n")
        elif method == "POST":
            head += "Content-Length: 0\r\n"
        request = (head + "\r\n").encode("ascii") + (data or b"")
        try:
            if self._sock is None:
                sock = socket.create_connection(self._address, timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._sock, self._reader = sock, sock.makefile("rb")
            else:
                self._sock.settimeout(timeout)
            self._sock.sendall(request)
        except OSError as exc:
            # Connection refused / reset while sending: the daemon may
            # be restarting; retry-enabled callers re-attempt.
            self.close()
            raise _retryable(
                f"cannot reach service at {self.base_url}: {exc}"
            ) from None
        except BaseException:
            self.close()  # a request half sent spoils the connection
            raise
        try:
            status, reason, headers, raw = _read_response(self._reader,
                                                          self.base_url)
        except socket.timeout:  # TimeoutError from Python 3.10 on
            self.close()
            raise _retryable(f"no response from {self.base_url} within"
                             f" {timeout:g} s") from None
        except OSError as exc:
            # A reset while *reading* the response: same remedy.
            self.close()
            raise _retryable(
                f"connection to {self.base_url} dropped mid-request: {exc}"
            ) from None
        except BaseException:
            self.close()
            raise
        self._last_used = time.monotonic()
        if headers.get("connection", "").lower() == "close":
            self.close()
        if 200 <= status < 300:
            return raw
        payload = _json_object(raw) or {}
        if status == 404:
            raise JobNotFound(payload.get("error", f"not found: {path}"))
        if payload.get("error") == "admission":
            raise AdmissionRejected(
                payload.get("reason", "unknown"),
                payload.get("message", f"rejected ({status})"),
                payload.get("retry_after_s"),
            )
        error = ServiceError(
            f"HTTP {status} on {method} {path}:"
            f" {payload.get('error', reason)}"
        )
        if status >= 500:
            error.retryable = True
            error.retry_after_s = _parse_retry_after(headers)
        raise error

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition (``/metrics``)."""
        return self._exchange("GET", "/metrics").decode("utf-8")

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a grid spec; returns the accepted job snapshot."""
        return self._request("POST", "/jobs", body=spec)

    def job(self, job_id: str, include_results: bool = True) -> Dict[str, Any]:
        suffix = "" if include_results else "?results=0"
        return self._request("GET", f"/jobs/{job_id}{suffix}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs").get("jobs", [])

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def events(self, job_id: str, after: int = 0, timeout_s: float = 25.0,
               ) -> Tuple[List[Dict[str, Any]], int, Dict[str, Any]]:
        """One long-poll: ``(events, next_after, job snapshot)``."""
        payload = self._request(
            "GET",
            f"/jobs/{job_id}/events?after={after}&timeout={timeout_s:g}",
            timeout_s=timeout_s + 10.0,
        )
        return (payload.get("events", []), int(payload.get("next", after)),
                payload.get("job", {}))

    # ------------------------------------------------------------------
    def wait(self, job_id: str, poll_timeout_s: float = 25.0,
             deadline_s: Optional[float] = None,
             on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
             ) -> Dict[str, Any]:
        """Long-poll a job's event stream until it reaches a terminal state.

        Returns the final job snapshot (``done`` only); any other
        terminal state raises :class:`JobFailed`.  ``on_event`` sees
        every event exactly once, in order.
        """
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        after = 0
        while True:
            events, after, job = self.events(
                job_id, after=after, timeout_s=poll_timeout_s
            )
            if on_event is not None:
                for event in events:
                    on_event(event)
            if job.get("state") in TERMINAL_STATES:
                final = self.job(job_id)
                if final.get("state") != "done":
                    raise JobFailed(final)
                return final
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {job.get('state')} after"
                    f" {deadline_s:g}s"
                )

    def wait_ready(self, attempts: int = 40, delay_s: float = 0.25,
                   ) -> Dict[str, Any]:
        """Poll ``/healthz`` until the daemon answers (startup races)."""
        last: Optional[ServiceError] = None
        for _ in range(max(1, attempts)):
            try:
                return self.health()
            except ServiceError as exc:
                last = exc
                time.sleep(delay_s)
        raise ServiceError(
            f"service at {self.base_url} never became ready: {last}"
        )
