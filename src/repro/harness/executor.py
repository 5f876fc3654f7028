"""Fault-tolerant execution of sweep points.

:class:`PointExecutor` runs each (benchmark, configuration) point with a
wall-clock timeout and bounded retry, turning every failure into a
structured :class:`PointFailure` record instead of aborting the sweep.
With a timeout the point runs on a worker thread so the timeout can
fire, writing a private collector that is merged only when it ends in
time; a timed-out thread is abandoned (Python threads cannot be killed)
and the engine-level ``max_cycles`` watchdog remains the backstop that
actually unwinds a runaway simulation.  Process isolation -- a crashing
or wedged point that cannot take the sweep down with it -- is the
process-pool backend's job (``--jobs N``; see
:mod:`repro.harness.backend`).

Transient failures (see :func:`repro.harness.errors.is_transient`) are
retried with exponential backoff up to ``retries`` times.  Every failed
point, raised here or detected by the process-pool parent, is counted
and logged by :func:`record_failure`.  Telemetry:
``sweep.point.retried``, ``sweep.point.timeout`` and
``sweep.point.failed`` counters.

The executor only runs points: the sweep loop
(:func:`repro.harness.sweep.run_sweep`) writes results to the cache
and keeps the failures in its tally.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from ..chaos.inject import recovered as chaos_recovered
from ..machine.config import MachineConfig
from ..stats.results import SimResult
from ..telemetry.collector import Collector
from ..telemetry.logging import get_logger
from .errors import PointFailure, PointTimeout, classify_error, is_transient
from .runner import SweepRunner

_LOG = get_logger("executor")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How hard to try and how long to wait for each point."""

    #: wall-clock budget per attempt in seconds (None: unbounded).
    timeout_s: Optional[float] = None
    #: extra attempts granted to *transient* failures.
    retries: int = 2
    #: first backoff delay; doubles per retry.
    backoff_s: float = 0.05
    #: failure kinds (classify_error names) granted retries on top of the
    #: transient set -- e.g. ("timeout", "hang") under the chaos harness,
    #: where those are injected and recoverable rather than systematic.
    retry_kinds: Tuple[str, ...] = ()


def _call_with_timeout(attempt: Callable[[Collector], SimResult],
                       collector: Collector, timeout_s: float,
                       benchmark: str, config_str: str) -> SimResult:
    """Run ``attempt`` on a daemon thread, raising PointTimeout on expiry.

    The attempt writes a private collector of ``collector``'s kind,
    whose snapshot is merged into ``collector`` only when the attempt
    ends in time, as the pool backend merges a worker's.  The
    timed-out thread keeps running (abandoned) and its writes stay
    private, so ``collector`` keeps one writer; the engine watchdog
    bounds how long the thread can actually burn CPU.
    """
    private = type(collector)()
    box: list = []

    def target() -> None:
        try:
            box.append(("ok", attempt(private)))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box.append(("err", exc))

    thread = threading.Thread(
        target=target, name=f"point-{benchmark}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise PointTimeout(benchmark, config_str, timeout_s)
    collector.merge(private.snapshot())
    status, payload = box[0]
    if status == "err":
        raise payload
    return payload


def record_failure(collector: Collector, benchmark: str,
                   config: MachineConfig, kind: str, message: str,
                   attempts: int = 1, elapsed: float = 0.0) -> PointFailure:
    """Count and log one failed point; returns its record.

    The executor calls it for failures a point raises, the process-pool
    backend for failures the parent detects (prepare, worker-crash,
    backstop timeout).  The record itself is kept by the sweep loop's
    tally, not by the collector.
    """
    if kind == "timeout":
        collector.count("sweep.point.timeout")
    collector.count("sweep.point.failed")
    _LOG.error("point_failed", benchmark=benchmark, config=str(config),
               kind=kind, attempts=attempts, elapsed_s=round(elapsed, 3))
    return PointFailure(
        benchmark=benchmark, config=str(config), kind=kind,
        message=message, attempts=attempts, elapsed_s=round(elapsed, 6),
    )


class PointExecutor:
    """Runs sweep points with timeout, retry and degradation."""

    def __init__(self, runner: SweepRunner,
                 policy: Optional[ExecutionPolicy] = None):
        self.runner = runner
        self.policy = policy or ExecutionPolicy()
        self.collector = runner.collector

    # ------------------------------------------------------------------
    def execute(self, benchmark: str,
                config: MachineConfig) -> Union[SimResult, PointFailure]:
        """One uncached point: guarded simulation, or a structured failure.

        The sweep loop probes the result cache before dispatching, so
        every point reaching the executor is a miss.
        """
        runner = self.runner
        policy = self.policy
        collector = self.collector
        start = time.perf_counter()
        attempts = 0
        while True:
            attempts += 1
            try:
                if policy.timeout_s is not None:
                    result = _call_with_timeout(
                        lambda private: runner.simulate_point(
                            benchmark, config, private),
                        collector, policy.timeout_s, benchmark, str(config),
                    )
                else:
                    result = runner.simulate_point(benchmark, config)
            except Exception as exc:  # noqa: BLE001 - degrade, don't abort
                retryable = (is_transient(exc)
                             or classify_error(exc) in policy.retry_kinds)
                if retryable and attempts <= policy.retries:
                    collector.count("sweep.point.retried")
                    _LOG.warning(
                        "point_retry", benchmark=benchmark,
                        config=str(config), attempt=attempts,
                        error=classify_error(exc),
                    )
                    time.sleep(policy.backoff_s * (2 ** (attempts - 1)))
                    continue
                return record_failure(
                    collector, benchmark, config, classify_error(exc),
                    str(exc), attempts, time.perf_counter() - start,
                )
            if attempts > 1:
                chaos_recovered("executor.retry")
            return result
