"""FIFO job scheduler: the daemon's single execution loop.

One background thread owns the :class:`~repro.harness.runner.SweepRunner`
(and through it the result cache, the telemetry collector and the
execution backend), preserving the single-writer discipline of batch
sweeps exactly: HTTP threads only parse specs, take the admission lock
and read snapshots -- they never touch the cache or the collector.

Each job is one plain batch sweep loop
(:func:`~repro.harness.sweep.run_sweep`): cache probe first, then
dispatch onto the shared :class:`~repro.harness.backend.ExecutionBackend`;
the loop's settle step writes the cache, its tally is the job's record
(the per-job oracle of ``serve --validate`` reads it), and this module
adds only job bookkeeping and cancellation through the loop's
``on_outcome`` and ``stop`` hooks.  Cancelling a running job stops its
dispatch; the loop still drains the points already in flight (at most
``2 x jobs``), so they reach the cache and count on the cancelled job.
Because the runner, the in-process prepared-workload cache and the pool
survive between jobs, the first job pays preparation once and every
later job that touches the same benchmarks starts warm -- the service's
whole reason to exist.  Between jobs the daemon holds no per-point
state: a finished job keeps its event stream, whose ``point`` events
are its point records, and the collector keeps only the counters and
histograms that feed ``/metrics``.

Admission control is typed: :class:`AdmissionError` carries a machine
-readable reason (``queue-full``, ``job-too-large``, ``scale-mismatch``,
``stopped``) and the HTTP status it maps to, so clients can distinguish
"retry later" from "fix your request".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..chaos.inject import recovered as chaos_recovered
from ..harness.backend import ExecutionBackend, PointOutcome, make_backend
from ..harness.executor import ExecutionPolicy
from ..harness.runner import SweepRunner
from ..harness.sweep import run_sweep
from ..telemetry import prometheus
from ..telemetry.logging import get_logger
from .jobs import (
    GridSpec,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    JobJournal,
    SpecError,
    SweepJob,
    TERMINAL_STATES,
    default_journal_path,
    points_digest,
)

_LOG = get_logger("service")


class AdmissionError(Exception):
    """Typed admission rejection (the service is full or stopping)."""

    def __init__(self, reason: str, message: str, http_status: int = 429,
                 retry_after_s: Optional[float] = None):
        super().__init__(message)
        self.reason = reason
        self.http_status = http_status
        self.retry_after_s = retry_after_s

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "error": "admission",
            "reason": self.reason,
            "message": str(self),
        }
        if self.retry_after_s is not None:
            document["retry_after_s"] = self.retry_after_s
        return document


class UnknownJobError(KeyError):
    """No such job id (404)."""


class JobScheduler:
    """Accepts jobs, runs them FIFO, and streams progress events."""

    def __init__(self, runner: SweepRunner, *,
                 backend: Optional[ExecutionBackend] = None,
                 policy: Optional[ExecutionPolicy] = None,
                 jobs: int = 1,
                 max_queued_jobs: int = 8,
                 max_job_points: int = 5600,
                 journal_path: Optional[str] = None,
                 validate: bool = False):
        self.runner = runner
        self.backend = backend if backend is not None else make_backend(
            runner, policy, jobs=jobs
        )
        self.max_queued_jobs = max_queued_jobs
        self.max_job_points = max_job_points
        self.validate = validate
        self.started_at = time.time()

        #: guards all job and queue state.  ``_cond`` wakes the
        #: scheduler thread; each long-poll sleeps on a condition of its
        #: own over the same lock (see :meth:`_emit`).
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        #: every job, in acceptance order (recovered jobs first).
        self._jobs: Dict[str, SweepJob] = {}
        self._queue: Deque[str] = deque()
        self._seq = 0
        self._stop_requested = False
        self._thread: Optional[threading.Thread] = None
        #: admission-side counters (mutated under the lock by HTTP
        #: threads; kept off the collector, which only the scheduler
        #: thread writes).
        self.stats: Dict[str, int] = {
            "jobs.accepted": 0,
            "jobs.rejected.queue-full": 0,
            "jobs.rejected.job-too-large": 0,
            "jobs.rejected.scale-mismatch": 0,
            "jobs.rejected.stopped": 0,
            "jobs.rejected.journal-error": 0,
            "jobs.done": 0,
            "jobs.failed": 0,
            "jobs.cancelled": 0,
        }
        #: scheduler-thread refresh of the collector's counters, so
        #: ``/metrics`` reads never race collector writes.  Histograms
        #: are refreshed at job boundaries only (they copy sample lists,
        #: which would be quadratic per point).
        self._counters_view: Dict[str, int] = {}
        self._histograms_view: Dict[str, List[float]] = {}

        self._journal = JobJournal(
            journal_path if journal_path is not None
            else default_journal_path()
        )
        self._recover()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout_s: float = 60.0, cancel_pending: bool = True) -> None:
        """Stop the loop, optionally cancelling queued/running jobs.

        A cancelled running job still settles its in-flight points into
        the cache, which the join waits for (bounded by ``timeout_s``);
        accepted-but-unfinished jobs stay journaled and re-queue on the
        next start.
        """
        with self._cond:
            self._stop_requested = True
            if cancel_pending:
                for job in self._jobs.values():
                    if not job.terminal:
                        job.cancel_requested = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None
        self.backend.close()
        self._journal.close()

    # ------------------------------------------------------------------
    # admission (called from HTTP threads)
    # ------------------------------------------------------------------
    def submit(self, spec: GridSpec) -> Dict[str, Any]:
        """Accept (journal + queue) one job, or raise a typed rejection."""
        scale = spec.scale if spec.scale is not None else self.runner.scale
        if scale != self.runner.scale:
            with self._cond:
                self.stats["jobs.rejected.scale-mismatch"] += 1
            raise AdmissionError(
                "scale-mismatch",
                f"this daemon serves scale {self.runner.scale}, not {scale}"
                " (result-cache keys embed the scale)",
                http_status=400,
            )
        points = spec.points(scale)
        digest = points_digest(points)
        with self._cond:
            if self._stop_requested:
                self.stats["jobs.rejected.stopped"] += 1
                raise AdmissionError(
                    "stopped", "the service is shutting down",
                    http_status=503,
                    retry_after_s=10.0,
                )
            if len(points) > self.max_job_points:
                self.stats["jobs.rejected.job-too-large"] += 1
                raise AdmissionError(
                    "job-too-large",
                    f"job has {len(points)} points; this daemon admits at"
                    f" most {self.max_job_points} per job",
                    http_status=429,
                    retry_after_s=60.0,
                )
            if len(self._queue) >= self.max_queued_jobs:
                self.stats["jobs.rejected.queue-full"] += 1
                raise AdmissionError(
                    "queue-full",
                    f"{len(self._queue)} job(s) already queued (bound"
                    f" {self.max_queued_jobs}); retry later",
                    http_status=429,
                    retry_after_s=5.0,
                )
            self._seq += 1
            job = SweepJob(
                job_id=f"{digest}-{self._seq:04d}",
                spec=spec, seq=self._seq, scale=scale,
                points_total=len(points),
            )
            try:
                self._admit(job)
            except OSError as exc:
                # Journal-first admission: nothing was registered, so
                # reject and roll the sequence number back -- job ids
                # must not burn sequence slots on unacknowledged jobs.
                self._seq -= 1
                self.stats["jobs.rejected.journal-error"] += 1
                _LOG.error("journal_append_rejected", job_id=job.job_id,
                           error=f"{type(exc).__name__}: {exc}")
                raise AdmissionError(
                    "journal-error",
                    f"cannot journal acceptance: {exc}",
                    http_status=503,
                    retry_after_s=1.0,
                ) from exc
            self.stats["jobs.accepted"] += 1
            self._cond.notify_all()
            _LOG.info("job_accepted", job_id=job.job_id,
                      points=job.points_total, scale=scale,
                      queue_depth=len(self._queue))
            return job.to_dict(include_results=False)

    def _admit(self, job: SweepJob) -> None:
        """Register one queued job (lock held): journal, queue, event.

        Journal-first: until the accept record is durably appended,
        nothing is registered -- a failed append leaves no half-admitted
        job behind (the caller translates the OSError into a retryable
        503 rejection).
        """
        self._journal.append({
            "event": "accept",
            "job_id": job.job_id,
            "seq": job.seq,
            "scale": job.scale,
            "points_total": job.points_total,
            "spec": job.spec.to_dict(),
        })
        self._jobs[job.job_id] = job
        self._queue.append(job.job_id)
        self._emit(job, "job.queued", queue_depth=len(self._queue))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; queued jobs settle immediately."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            if job.terminal:
                return job.to_dict(include_results=False)
            job.cancel_requested = True
            if job.state == JOB_QUEUED:
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass
                self._finish_locked(job, JOB_CANCELLED)
            self._cond.notify_all()
            return job.to_dict(include_results=False)

    # ------------------------------------------------------------------
    # read side (called from HTTP threads)
    # ------------------------------------------------------------------
    def job(self, job_id: str, include_results: bool = True) -> Dict[str, Any]:
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            return job.to_dict(include_results=include_results)

    def jobs(self) -> List[Dict[str, Any]]:
        with self._cond:
            return [job.to_dict(include_results=False)
                    for job in self._jobs.values()]

    def wait_events(self, job_id: str, after: int = 0,
                    timeout_s: float = 25.0,
                    ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Long-poll: events past ``after``, or until timeout/terminal.

        Returns ``(events, job snapshot)``; an empty event list means
        the timeout elapsed with nothing new (the client re-polls).
        Events with ``seq > after`` are the list past index ``after``
        (a negative ``after`` means the whole stream).  While it waits,
        the poll is one of the job's ``waiters``.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        after = max(after, 0)
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(job_id)
            waiter = None
            try:
                while True:
                    fresh = [dict(event) for event in job.events[after:]]
                    if fresh or job.terminal:
                        return fresh, job.to_dict(include_results=False)
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return [], job.to_dict(include_results=False)
                    if waiter is None:
                        waiter = (after, threading.Condition(self._lock))
                        job.waiters.append(waiter)
                    waiter[1].wait(remaining)
            finally:
                if waiter is not None:
                    job.waiters.remove(waiter)

    def health(self) -> Dict[str, Any]:
        with self._cond:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "ok": True,
                "uptime_s": round(time.time() - self.started_at, 3),
                "queued": len(self._queue),
                "jobs": states,
                "scale": self.runner.scale,
                "backend": self.backend.name,
                "stopping": self._stop_requested,
            }

    def metrics_text(self) -> str:
        """The ``/metrics`` body: Prometheus text exposition (0.0.4).

        Counters and latency histograms come from scheduler-thread
        snapshot views (counters per point resolution, histograms per
        job boundary), never a live read of a dict another thread is
        writing; admission counters are merged in under the lock.
        Queue depth and uptime ride as gauges so a scraper sees service
        pressure without parsing the JSON health document.
        """
        with self._cond:
            counters = dict(self._counters_view)
            for name, value in self.stats.items():
                counters[f"service.{name}"] = value
            histograms = {
                name: list(values)
                for name, values in self._histograms_view.items()
            }
            gauges = {
                "service.queue.depth": float(len(self._queue)),
                "service.uptime_seconds": round(
                    time.time() - self.started_at, 3
                ),
                "service.stopping": float(self._stop_requested),
            }
        return prometheus.render_exposition(counters, gauges, histograms)

    # ------------------------------------------------------------------
    # journal recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: finished jobs reappear, pending re-queue.

        Completed points are *not* replayed -- they live in the result
        cache -- so a re-queued job re-runs as cache hits instead of
        duplicating work.  The journal is compacted afterwards so it
        does not grow across restart cycles; a failed compaction is
        logged and the uncompacted journal, which replays to the same
        jobs, stays in place.
        """
        records = JobJournal.replay(self._journal.path,
                                    collector=self.runner.collector)
        if not records:
            return
        final_state: Dict[str, Dict[str, Any]] = {}
        accepted: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        for record in records:
            job_id = record.get("job_id")
            if not isinstance(job_id, str):
                continue
            if record.get("event") == "accept":
                if job_id not in accepted:
                    accepted[job_id] = record
                    order.append(job_id)
            elif record.get("event") == "state":
                final_state[job_id] = record
        compacted: List[Dict[str, Any]] = []
        with self._cond:
            self._recover_jobs(accepted, final_state, order, compacted)
        try:
            self._journal.rewrite(compacted)
        except OSError as exc:
            _LOG.warning("journal_compaction_failed",
                         path=self._journal.path,
                         error=f"{type(exc).__name__}: {exc}")

    def _recover_jobs(self, accepted: Dict[str, Dict[str, Any]],
                      final_state: Dict[str, Dict[str, Any]],
                      order: List[str],
                      compacted: List[Dict[str, Any]]) -> None:
        """Rebuild job state from replayed records (lock held)."""
        for job_id in order:
            record = accepted[job_id]
            try:
                spec = GridSpec.from_dict(record.get("spec"))
                scale = int(record["scale"])
                seq = int(record["seq"])
                points_total = int(record["points_total"])
            except (SpecError, KeyError, TypeError, ValueError):
                continue  # an unusable record: drop it from the compaction
            job = SweepJob(job_id=job_id, spec=spec, seq=seq, scale=scale,
                           points_total=points_total)
            self._seq = max(self._seq, seq)
            state_record = final_state.get(job_id)
            state = (state_record or {}).get("state")
            compacted.append({key: record[key] for key in
                              ("event", "job_id", "seq", "scale",
                               "points_total", "spec")})
            if state in TERMINAL_STATES:
                job.state = state
                job.error = (state_record or {}).get("error")
                points = (state_record or {}).get("points")
                if isinstance(points, dict):
                    job.points_cached = int(points.get("cached", 0))
                    job.points_fresh = int(points.get("fresh", 0))
                    job.points_failed = int(points.get("failed", 0))
                compacted.append({key: value
                                  for key, value in state_record.items()
                                  if key != "v"})
            else:
                # Accepted but unfinished when the daemon died: run it
                # (again); its completed points are cache hits.
                job.state = JOB_QUEUED
                self._queue.append(job_id)
            self._jobs[job_id] = job
            if job.state == JOB_QUEUED:
                self._emit(job, "job.requeued", recovered=True)

    # ------------------------------------------------------------------
    # scheduler thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop_requested:
                    self._cond.wait()
                if not self._queue:
                    return
                job = self._jobs[self._queue.popleft()]
            if job.cancel_requested:
                with self._cond:
                    self._finish_locked(job, JOB_CANCELLED)
                continue
            self._execute(job)

    def _execute(self, job: SweepJob) -> None:
        collector = self.runner.collector
        log = _LOG.bind(job_id=job.job_id)
        with self._cond:
            job.state = JOB_RUNNING
            job.started_s = time.time()
            queue_wait_s = job.started_s - job.created_s
            self._journal_append_safe({"event": "state",
                                       "job_id": job.job_id,
                                       "state": JOB_RUNNING})
            self._emit(job, "job.running",
                       queue_wait_s=round(queue_wait_s, 6))
        collector.observe("service.job.queue_wait_s", queue_wait_s)
        log.info("job_running", queue_wait_s=round(queue_wait_s, 3),
                 points=job.points_total)
        snap0 = dict(collector.counters)
        run_start = time.perf_counter()
        try:
            # Cancelling ends dispatch; the loop still settles the
            # points in flight, onto this job.
            tally = run_sweep(self.runner, self.backend,
                              job.spec.points(job.scale),
                              lambda outcome, _tally: self._resolve(job, outcome),
                              stop=lambda: job.cancel_requested)
        except Exception as exc:  # noqa: BLE001 - a job must not kill the loop
            log.error("job_crashed", error=f"{type(exc).__name__}: {exc}")
            with self._cond:
                job.error = f"{type(exc).__name__}: {exc}"
                self._finish_locked(job, JOB_FAILED)
                self._refresh_histograms_locked()
            return
        deltas = {
            name: value - snap0.get(name, 0)
            for name, value in collector.counters.items()
            if value != snap0.get(name, 0)
        }
        collector.observe("service.job.run_s", time.perf_counter() - run_start)
        with self._cond:
            self._refresh_histograms_locked()
        self._flush_cache_safe()
        report = None
        if self.validate and not job.cancel_requested and tally.results:
            from ..validate import run_oracle

            report = run_oracle(tally.results.values(), scale=job.scale)
        with self._cond:
            job.counters = deltas
            if report is not None:
                job.validation = report.to_dict()
            if job.cancel_requested:
                state = JOB_CANCELLED
            elif job.points_failed:
                state = JOB_FAILED
                job.error = f"{job.points_failed} point(s) failed"
            else:
                state = JOB_DONE
            self._finish_locked(job, state)

    def _journal_append_safe(self, record: Dict[str, Any]) -> None:
        """Append a non-admission record, tolerating journal I/O failure.

        Acceptance appends are load-bearing (they gate admission); state
        records are best-effort -- losing one costs a replay-time
        re-queue that settles as cache hits, never lost work.
        """
        try:
            self._journal.append(record)
        except OSError as exc:
            _LOG.warning("journal_append_failed",
                         job_id=record.get("job_id"),
                         event=record.get("event"),
                         error=f"{type(exc).__name__}: {exc}")
            chaos_recovered("journal.append")

    def _flush_cache_safe(self) -> None:
        """Terminal cache flush (scheduler thread): retry a failed write.

        ``ResultCache.flush`` is a no-op unless a previous write failed
        and left dirty entries behind; this second chance keeps a
        transient I/O error from losing the job's last results.
        """
        cache = self.runner.cache
        if cache is None:
            return
        try:
            cache.flush()
        except OSError:
            self.runner.collector.count("sweep.cache.store_error")

    def _resolve(self, job: SweepJob, outcome: PointOutcome) -> None:
        """Record one settled point on ``job`` and emit its event."""
        task, result, failure = outcome.task, outcome.result, outcome.failure
        status = "failed" if failure is not None else outcome.source
        with self._cond:
            if status == "cached":
                job.points_cached += 1
            elif status == "failed":
                job.points_failed += 1
            else:
                job.points_fresh += 1
            self._refresh_counters_locked()
            event = {"seq": len(job.events) + 1, "ts": time.time(),
                     "kind": "point", "job_id": job.job_id,
                     "resolved": job.points_resolved,
                     "total": job.points_total, "benchmark": task.benchmark,
                     "config": task.label, "status": status}
            if result is not None:
                event["ipc"] = result.retired_per_cycle
                event["cycles"] = result.cycles
            if failure is not None:
                event["error"] = failure.kind
            self._publish(job, event)

    def _finish_locked(self, job: SweepJob, state: str) -> None:
        """Terminal transition (lock held): journal, stats, final event."""
        job.state = state
        job.finished_s = time.time()
        stat = {JOB_DONE: "jobs.done", JOB_FAILED: "jobs.failed",
                JOB_CANCELLED: "jobs.cancelled"}[state]
        self.stats[stat] += 1
        self._journal_append_safe({
            "event": "state",
            "job_id": job.job_id,
            "state": state,
            "error": job.error,
            "points": {
                "cached": job.points_cached,
                "fresh": job.points_fresh,
                "failed": job.points_failed,
            },
        })
        self._refresh_counters_locked()
        self._emit(job, f"job.{state}",
                   points=job.to_dict(include_results=False)["points"],
                   error=job.error,
                   wall_s=(round(job.finished_s - job.started_s, 6)
                           if job.started_s is not None else None))
        _LOG.info("job_" + state, job_id=job.job_id,
                  cached=job.points_cached, fresh=job.points_fresh,
                  failed=job.points_failed, error=job.error)

    def _refresh_counters_locked(self) -> None:
        self._counters_view = dict(self.runner.collector.counters)

    def _refresh_histograms_locked(self) -> None:
        """Scheduler-thread only: histograms copy whole sample lists."""
        self._histograms_view = {
            name: list(values)
            for name, values in self.runner.collector.histograms.items()
        }

    def _emit(self, job: SweepJob, kind: str, **payload: Any) -> None:
        """Append one event to a job's stream (lock held)."""
        self._publish(job, {
            "seq": len(job.events) + 1,
            "ts": time.time(),
            "kind": kind,
            "job_id": job.job_id,
            **payload,
        })

    @staticmethod
    def _publish(job: SweepJob, event: Dict[str, Any]) -> None:
        """Append ``event``, whose ``seq`` is the stream's next (lock held).

        Wakes only the long-polls the event answers: those waiting for
        an event past an earlier ``seq``, and every one once the job is
        terminal.  A poll past the end of the stream sleeps through the
        job's point events and wakes once, at its end.
        """
        job.events.append(event)
        seq = event["seq"]
        for after, waiter in job.waiters:
            if after < seq or job.terminal:
                waiter.notify()
