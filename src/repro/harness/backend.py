"""Pluggable sweep execution backends: serial, or a process pool.

The sweep loop (:func:`repro.harness.sweep.run_sweep`) is written
against one small surface, :class:`ExecutionBackend`:

* :meth:`~ExecutionBackend.submit` hands the backend one uncached
  :class:`PointTask` and yields any :class:`PointOutcome` objects that
  are ready (the serial backend's own task immediately; whatever the
  pool has finished so far otherwise);
* :meth:`~ExecutionBackend.finish` blocks until every outstanding task
  has produced an outcome;
* :meth:`~ExecutionBackend.close` releases workers.

Backends only run points and return outcomes: the sweep loop settles
each one (cache write, tally, checkpoint).

:class:`SerialBackend` runs each task through a :class:`PointExecutor`
in submission order, in this process.

:class:`ProcessPoolBackend` (``--jobs N``) fans tasks out across a
``concurrent.futures.ProcessPoolExecutor``.  The merge discipline is
strict single-writer: workers never touch the result cache, the
checkpoint manifest or ``telemetry.json`` -- each worker runs its point
through its own :class:`PointExecutor` (same timeout/retry machinery as
serial) and mails back one picklable message ``(result-or-failure,
telemetry snapshot)``; the parent merges snapshots into its collector
and hands the outcome to the sweep loop.
Prepare is hoisted: before a benchmark's first point dispatches, the
parent materializes its artifacts (:meth:`SweepRunner.prepare_artifacts`)
so workers load them from the artifact store instead of re-compiling
and re-tracing per point.

Degradation mirrors the serial executor: a crashed worker becomes
``worker-crash`` :class:`PointFailure` records for the tasks that were
in flight (the pool is rebuilt and undispatched tasks resubmitted, with
a strike limit so a poison point cannot crash-loop the sweep), and a
worker wedged past the wall-clock budget is bounded first by the
worker-side timeout thread and ultimately by a parent-side backstop
that fails the remaining in-flight tasks and terminates the pool.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, Iterator, Optional, Tuple, Union

from ..chaos.inject import fire as chaos_fire
from ..machine.config import MachineConfig
from ..stats.results import SimResult
from .errors import PointFailure, WorkloadPrepareError
from .executor import ExecutionPolicy, PointExecutor, record_failure
from .runner import SweepRunner

#: Extra attempts a task gets after its worker pool broke underneath it.
#: Strike one may be an innocent neighbour of the crashing point; strike
#: two in a row almost certainly is the crashing point.
MAX_CRASH_STRIKES = 2

#: Outstanding futures per worker; bounds how many tasks a pool
#: breakage can strand and how much completed work can queue unmerged.
_WINDOW_PER_WORKER = 2


@dataclass(frozen=True)
class PointTask:
    """One uncached (benchmark, configuration) point to execute."""

    benchmark: str
    config: MachineConfig
    #: result-cache key (parent-computed; also the checkpoint key).
    key: str


@dataclass
class PointOutcome:
    """What one task produced: a result or a structured failure."""

    task: PointTask
    result: Optional[SimResult] = None
    failure: Optional[PointFailure] = None
    #: how the sweep loop settled the point: ``fresh`` (run by a
    #: backend), ``cached`` (a result-cache hit) or ``carried`` (a
    #: failure recorded by an earlier run and not re-attempted).
    source: str = "fresh"

    @property
    def ok(self) -> bool:
        return self.failure is None

    @classmethod
    def of(cls, task: PointTask,
           value: Union[SimResult, PointFailure]) -> "PointOutcome":
        """The fresh outcome of what an executor returned for ``task``."""
        if isinstance(value, PointFailure):
            return cls(task, failure=value)
        return cls(task, result=value)


class ExecutionBackend:
    """Protocol: where sweep points run (see module docstring)."""

    #: short name for telemetry.json context and progress messages.
    name = "abstract"

    def submit(self, task: PointTask) -> Iterator[PointOutcome]:
        raise NotImplementedError

    def finish(self) -> Iterator[PointOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release workers; safe to call more than once."""


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution through one :class:`PointExecutor`."""

    name = "serial"

    def __init__(self, runner: SweepRunner,
                 policy: Optional[ExecutionPolicy] = None):
        self.executor = PointExecutor(runner, policy)

    def submit(self, task: PointTask) -> Iterator[PointOutcome]:
        # Dispatch only tolerates latency: a raised fault here would
        # abort the whole sweep, not one point.
        chaos_fire("backend.dispatch")
        yield PointOutcome.of(
            task, self.executor.execute(task.benchmark, task.config)
        )

    def finish(self) -> Iterator[PointOutcome]:
        return iter(())


@dataclass(frozen=True)
class _WorkerJob:
    """The picklable work order one pool worker receives."""

    benchmark: str
    config: MachineConfig
    scale: int
    telemetry: bool
    timeout_s: Optional[float]
    retries: int
    backoff_s: float
    retry_kinds: Tuple[str, ...] = ()


def _pool_point(job: _WorkerJob) -> Tuple[object, Optional[dict]]:
    """Pool-worker entry: run one point, mail back (outcome, snapshot).

    The worker-local runner has no result cache (the parent owns every
    cache write) and its own collector; the returned telemetry snapshot
    is merged by the parent so counters and histograms match a serial
    run of the same grid.
    """
    from ..telemetry.collector import MetricsCollector

    collector = MetricsCollector() if job.telemetry else None
    runner = SweepRunner(
        benchmarks=[job.benchmark], scale=job.scale, use_cache=False,
        collector=collector,
    )
    executor = PointExecutor(runner, ExecutionPolicy(
        timeout_s=job.timeout_s, retries=job.retries,
        backoff_s=job.backoff_s, retry_kinds=job.retry_kinds,
    ))
    outcome = executor.execute(job.benchmark, job.config)
    snapshot = collector.snapshot() if collector is not None else None
    return outcome, snapshot


@dataclass
class _Pending:
    task: PointTask
    strikes: int = 0
    submitted_at: float = field(default_factory=time.perf_counter)


class ProcessPoolBackend(ExecutionBackend):
    """Fan sweep points out across a pool of worker processes."""

    name = "process"

    def __init__(self, runner: SweepRunner,
                 policy: Optional[ExecutionPolicy] = None,
                 jobs: Optional[int] = None):
        self.runner = runner
        self.policy = policy or ExecutionPolicy()
        self.jobs = max(2, jobs if jobs is not None else (os.cpu_count() or 2))
        self._pool: Optional[ProcessPoolExecutor] = None
        self._queue: Deque[_Pending] = deque()
        self._inflight: Dict[Future, _Pending] = {}
        #: benchmark -> the prepare failure to stamp on its points, or
        #: None once its artifacts are known to be on disk.
        self._prepared: Dict[str, Optional[WorkloadPrepareError]] = {}
        self._window = self.jobs * _WINDOW_PER_WORKER

    # ------------------------------------------------------------------
    def submit(self, task: PointTask) -> Iterator[PointOutcome]:
        chaos_fire("backend.dispatch")
        self._queue.append(_Pending(task))
        yield from self._pump(block=False)

    def finish(self) -> Iterator[PointOutcome]:
        yield from self._pump(block=True)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _ensure_prepared(self, benchmark: str) -> Optional[WorkloadPrepareError]:
        """Prepare-once-per-benchmark, before any of its points dispatch."""
        if benchmark not in self._prepared:
            try:
                self.runner.prepare_artifacts(benchmark)
                self._prepared[benchmark] = None
            except WorkloadPrepareError as exc:
                self._prepared[benchmark] = exc
        return self._prepared[benchmark]

    def _pump(self, block: bool) -> Iterator[PointOutcome]:
        """Dispatch queued tasks and harvest completions.

        Non-blocking pumps (one per ``submit``) keep the window full and
        drain whatever is already done; a blocking pump runs until both
        the queue and the in-flight window are empty.
        """
        while True:
            # Fill the dispatch window from the queue.
            while self._queue and len(self._inflight) < self._window:
                pending = self._queue.popleft()
                prepare_error = self._ensure_prepared(pending.task.benchmark)
                if prepare_error is not None:
                    yield self._degrade(
                        pending.task, "prepare", str(prepare_error)
                    )
                    continue
                try:
                    future = self._ensure_pool().submit(
                        _pool_point, self._job_for(pending.task)
                    )
                except BrokenProcessPool:
                    # The pool died between harvests; this task never
                    # dispatched (no strike).  Settle the doomed
                    # in-flight futures -- which also rebuilds the pool
                    # -- and retry the fill.
                    self._queue.appendleft(pending)
                    if self._inflight:
                        yield from self._harvest(list(self._inflight))
                    else:
                        self._rebuild_pool()
                    continue
                self._inflight[future] = pending

            if not self._inflight:
                if not self._queue:
                    return
                continue  # everything queued degraded at prepare; refill

            done, _ = wait(
                set(self._inflight),
                timeout=(self._backstop_s() if block else 0),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                if not block:
                    return
                yield from self._backstop_expired()
                continue
            yield from self._harvest(done)
            if not block and not self._queue:
                return

    def _job_for(self, task: PointTask) -> _WorkerJob:
        policy = self.policy
        return _WorkerJob(
            benchmark=task.benchmark,
            config=task.config,
            scale=self.runner.scale,
            telemetry=self.runner.collector.enabled,
            timeout_s=policy.timeout_s,
            retries=policy.retries,
            backoff_s=policy.backoff_s,
            retry_kinds=policy.retry_kinds,
        )

    # ------------------------------------------------------------------
    def _harvest(self, done: Iterable[Future]) -> Iterator[PointOutcome]:
        broken = False
        for future in done:
            pending = self._inflight.pop(future)
            try:
                outcome, snapshot = future.result()
            except BrokenProcessPool:
                broken = True
                pending.strikes += 1
                if pending.strikes >= MAX_CRASH_STRIKES:
                    yield self._degrade(
                        pending.task, "worker-crash",
                        f"worker process died {pending.strikes} times"
                        " running this point",
                        attempts=pending.strikes,
                        elapsed=time.perf_counter() - pending.submitted_at,
                    )
                else:
                    self._queue.appendleft(pending)
                continue
            except Exception as exc:  # noqa: BLE001 - degrade, don't abort
                yield self._degrade(
                    pending.task, "worker-crash",
                    f"{type(exc).__name__}: {exc}",
                    elapsed=time.perf_counter() - pending.submitted_at,
                )
                continue
            if snapshot is not None:
                merge_start = time.perf_counter()
                self.runner.collector.merge(snapshot)
                self.runner.collector.observe(
                    "sweep.point.merge_s", time.perf_counter() - merge_start
                )
            # Worker-side telemetry already counted a failure; the
            # sweep loop settles either kind of outcome.
            yield PointOutcome.of(pending.task, outcome)
        if broken:
            self._rebuild_pool()

    def _rebuild_pool(self) -> None:
        """Replace a broken pool; in-flight futures were already settled."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        # Anything still tracked in-flight raced the breakage: requeue it
        # with a strike so it either reruns or degrades at its limit.
        for future in list(self._inflight):
            pending = self._inflight.pop(future)
            pending.strikes += 1
            self._queue.appendleft(pending)

    # ------------------------------------------------------------------
    def _backstop_s(self) -> Optional[float]:
        """How long a blocking wait tolerates zero completions.

        Worker-side timeouts are the primary hang defence; this bound
        only fires when a worker is wedged below Python (so its timeout
        thread cannot report).  With ``jobs`` workers making progress,
        *some* future must complete within one task's full retry budget.
        """
        if self.policy.timeout_s is None:
            return None
        per_task = self.policy.timeout_s * (self.policy.retries + 1)
        return per_task + 30.0

    def _backstop_expired(self) -> Iterator[PointOutcome]:
        budget = self._backstop_s()
        for future, pending in list(self._inflight.items()):
            future.cancel()
            del self._inflight[future]
            yield self._degrade(
                pending.task, "timeout",
                f"no completion within the parent backstop ({budget:g}s);"
                " worker presumed wedged",
                elapsed=time.perf_counter() - pending.submitted_at,
            )
        self._terminate_workers()

    def _terminate_workers(self) -> None:
        """Hard-stop a wedged pool so a blocking drain can't hang forever."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        try:
            processes = list((pool._processes or {}).values())
        except Exception:  # noqa: BLE001 - private attr; best effort only
            processes = []
        for process in processes:
            try:
                process.terminate()
            except Exception:  # noqa: BLE001
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    def _degrade(self, task: PointTask, kind: str, message: str,
                 attempts: int = 1, elapsed: float = 0.0) -> PointOutcome:
        """Count a parent-detected failure through the executor's path."""
        return PointOutcome(task, failure=record_failure(
            self.runner.collector, task.benchmark, task.config, kind,
            message, attempts, elapsed,
        ))


def make_backend(runner: SweepRunner,
                 policy: Optional[ExecutionPolicy] = None,
                 jobs: int = 1) -> ExecutionBackend:
    """The backend for ``--jobs N``: serial at 1, a process pool above."""
    if jobs <= 1:
        return SerialBackend(runner, policy)
    return ProcessPoolBackend(runner, policy, jobs=jobs)

