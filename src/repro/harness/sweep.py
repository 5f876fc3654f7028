"""The sweep loop: probe, dispatch, drain and settle a list of grid points.

Every caller that runs grid points -- ``repro-sim sweep``, the chaos
drill and the service's job scheduler -- drives :func:`run_sweep`.  Per point, in task order:

1. a failure carried from an earlier run settles the point without
   re-attempting it;
2. a result-cache hit settles it without dispatch;
3. past the ``limit`` of dispatched points the loop stops;
4. a ``claim`` hook may decline the dispatch (the caller already has the
   point in flight elsewhere and will settle it itself);
5. otherwise the point goes to the :class:`ExecutionBackend`, whose
   outcomes are settled as they arrive.

Unless ``stop`` asked it to end early, the loop then drains the backend.

Settling is the loop's alone: backends and the executor only run points
and return outcomes.  The settle step writes each fresh result to the
result cache, feeds every cached or fresh result to the validation
oracle (both through :meth:`SweepRunner.settle_result`), and appends
every failure, fresh or carried, to ``runner.failures``.  What differs
between callers -- checkpoint marks, progress lines, job bookkeeping --
lives in the ``on_outcome`` callback; :func:`run_checkpointed` adds the
checkpoint marks and the shutdown that ``repro-sim sweep`` and the
chaos drill share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence

from ..machine.config import grid_configs
from .backend import ExecutionBackend, PointOutcome, PointTask
from .cache import result_key
from .checkpoint import SweepCheckpoint
from .errors import PointFailure
from .runner import SweepRunner


def grid_tasks(grid: str, benchmarks: Sequence[str], scale: int,
               limit: Optional[int] = None) -> List[PointTask]:
    """Every point of ``grid`` over ``benchmarks``, benchmark-major.

    Benchmark-major order runs each benchmark's expensive prepare once,
    right before its first point, and keeps one benchmark's workload
    resident at a time.  ``limit`` keeps only the first N points.
    """
    tasks = [PointTask(name, config, result_key(name, config, scale))
             for name in benchmarks
             for config in grid_configs(grid, name)]
    return tasks if limit is None else tasks[:limit]


@dataclass
class SweepTally:
    """What one :func:`run_sweep` call has settled so far."""

    #: points settled: cached, simulated, failed or carried.
    resolved: int = 0
    #: points handed to the backend.
    dispatched: int = 0
    #: settled points that failed, carried failures included.
    failed: int = 0
    #: whether the loop stopped at ``limit`` dispatched points.
    limited: bool = False


def run_sweep(runner: SweepRunner, backend: ExecutionBackend,
              tasks: Iterable[PointTask],
              on_outcome: Callable[[PointOutcome, SweepTally], None],
              limit: Optional[int] = None,
              carried: Optional[Mapping[str, PointFailure]] = None,
              claim: Optional[Callable[[PointTask], bool]] = None,
              stop: Optional[Callable[[], bool]] = None) -> SweepTally:
    """Run ``tasks`` through ``backend``; see the module docstring.

    ``on_outcome`` sees every outcome the loop settles, including those
    of points an earlier run of the loop left in flight on the same
    backend (the service routes them to the jobs that claimed them).
    """
    tally = SweepTally()

    def settle(outcome: PointOutcome) -> None:
        tally.resolved += 1
        if outcome.failure is not None:
            tally.failed += 1
            runner.failures.append(outcome.failure)
        else:
            runner.settle_result(outcome.result, outcome.source == "fresh")
        on_outcome(outcome, tally)

    for task in tasks:
        if stop is not None and stop():
            break
        prior = carried.get(task.key) if carried else None
        if prior is not None:
            runner.collector.count("sweep.point.skipped_failed")
            settle(PointOutcome(task, failure=prior, source="carried"))
            continue
        hit = runner.cache_lookup(task.benchmark, task.config)
        if hit is not None:
            settle(PointOutcome(task, result=hit, source="cached"))
            continue
        if limit is not None and tally.dispatched >= limit:
            tally.limited = True
            break
        if claim is not None and not claim(task):
            continue
        tally.dispatched += 1
        for outcome in backend.submit(task):
            settle(outcome)
    if stop is None or not stop():
        for outcome in backend.finish():
            settle(outcome)
    return tally


def run_checkpointed(runner: SweepRunner, backend: ExecutionBackend,
                     tasks: Iterable[PointTask], checkpoint: SweepCheckpoint,
                     on_outcome: Optional[
                         Callable[[PointOutcome, SweepTally], None]] = None,
                     limit: Optional[int] = None,
                     carried: Optional[Mapping[str, PointFailure]] = None,
                     ) -> SweepTally:
    """:func:`run_sweep` with checkpoint marks and a clean shutdown.

    Every settled point except a carried failure (already in the
    manifest) is marked in ``checkpoint`` before ``on_outcome`` sees
    it.  However the loop ends, the backend's workers are released,
    the result cache gets a last flush (dirty entries survive a failed
    mid-sweep write; a failure here is logged by the cache) and the
    manifest is saved, so a killed or crashing sweep stays resumable.
    """
    def mark(outcome: PointOutcome, tally: SweepTally) -> None:
        if outcome.failure is None:
            checkpoint.mark_done(outcome.task.key)
        elif outcome.source != "carried":
            checkpoint.mark_failed(outcome.task.key, outcome.failure)
        if on_outcome is not None:
            on_outcome(outcome, tally)

    try:
        return run_sweep(runner, backend, tasks, mark, limit=limit,
                         carried=carried)
    finally:
        backend.close()
        if runner.cache is not None:
            try:
                runner.cache.flush()
            except OSError:
                pass
        checkpoint.save()
