"""HTTP client for the simulation service (stdlib ``urllib`` only).

Used by the ``repro-sim submit`` CLI verb, the service-mode bench and
the test suite.  Every transport or protocol problem surfaces as a
typed exception so callers can map outcomes to exit codes:

* :class:`AdmissionRejected` -- the daemon's typed 429/503 rejection,
  carrying its machine-readable ``reason`` (``queue-full``, ...);
* :class:`JobNotFound` -- 404 for an unknown job id;
* :class:`JobFailed` -- a waited-on job reached a terminal state other
  than ``done``;
* :class:`ServiceError` -- anything else (connection refused, bad
  response, HTTP 500s).

Retry policy (``retries > 0``): transient failures -- retryable
admission rejections (``queue-full``, ``stopped``, ``journal-error``),
5xx responses and connection-level errors -- are retried with capped
exponential backoff plus seeded jitter.  The daemon's ``Retry-After``
hint, surfaced as ``retry_after_s`` on the exception, overrides the
exponential base when present.  ``rng`` and ``sleep`` are injectable so
tests control both the jitter and the clock.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..chaos.inject import recovered as chaos_recovered
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


def _parse_retry_after(headers: Any) -> Optional[float]:
    """The Retry-After header as seconds, when present and numeric."""
    if headers is None:
        return None
    raw = headers.get("Retry-After")
    if raw is None:
        return None
    try:
        return float(raw)
    except (TypeError, ValueError):
        return None


class ServiceClient:
    """Minimal JSON-over-HTTP client for one service daemon."""

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
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout_s or self.timeout_s
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except ValueError:
                payload = {}
            if exc.code == 404:
                raise JobNotFound(
                    payload.get("error", f"not found: {path}")
                ) from None
            if payload.get("error") == "admission":
                raise AdmissionRejected(
                    payload.get("reason", "unknown"),
                    payload.get("message", f"rejected ({exc.code})"),
                    payload.get("retry_after_s"),
                ) from None
            error = ServiceError(
                f"HTTP {exc.code} on {method} {path}:"
                f" {payload.get('error', exc.reason)}"
            )
            if exc.code >= 500:
                error.retryable = True
                error.retry_after_s = _parse_retry_after(exc.headers)
            raise error from None
        except urllib.error.URLError as exc:
            # Connection refused / reset mid-request: the daemon may be
            # restarting; retry-enabled callers re-attempt.
            error = ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            )
            error.retryable = True
            raise error from None
        except ConnectionError as exc:
            # urllib only wraps errors from sending the request; a reset
            # while *reading* the response (http.client's
            # RemoteDisconnected) escapes raw.  Same remedy: retry.
            error = ServiceError(
                f"connection to {self.base_url} dropped mid-request: {exc}"
            )
            error.retryable = True
            raise error from None
        if not isinstance(payload, dict):
            raise ServiceError(f"malformed response from {method} {path}")
        return payload

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition (``/metrics``)."""
        request = urllib.request.Request(
            self.base_url + "/metrics", method="GET"
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc}"
            ) from None

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
