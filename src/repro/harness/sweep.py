"""The sweep loop: probe, dispatch, drain and settle a list of grid points.

Every caller that runs grid points -- ``repro-sim sweep``, the chaos
drill and the service's job scheduler -- drives :func:`run_sweep`.  Per point, in task order:

1. a failure carried from an earlier run settles the point without
   re-attempting it;
2. a result-cache hit settles it without dispatch;
3. past the ``limit`` of dispatched points, or once ``stop`` says so,
   dispatch ends;
4. otherwise the point goes to the :class:`ExecutionBackend`, whose
   outcomes are settled as they arrive.

However dispatch ended, the loop then drains the backend, so every
point it dispatched is settled before it returns.

Settling is the loop's alone: backends and the executor only run points
and return outcomes.  The settle step writes each fresh result to the
result cache (through :meth:`SweepRunner.settle_result`) and records the
run in the returned :class:`SweepTally`: one result per point key,
cached or fresh, and every failure, fresh or carried.  The tally is the
run's record; callers read it after the loop (the validation oracle
runs over ``tally.results``, exit codes read ``tally.failures``).  What
differs between callers -- checkpoint marks, progress lines, job
bookkeeping -- lives in the ``on_outcome`` callback;
:func:`run_checkpointed` adds the checkpoint marks and the shutdown that
``repro-sim sweep`` and the chaos drill share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..machine.config import grid_configs
from ..stats.results import SimResult
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
    """The record of one :func:`run_sweep` call: what it has settled."""

    #: points settled: cached, simulated, failed or carried.
    resolved: int = 0
    #: points handed to the backend.
    dispatched: int = 0
    #: whether the loop stopped at ``limit`` dispatched points.
    limited: bool = False
    #: point key -> its result, cached or fresh; the first settle wins.
    results: Dict[str, SimResult] = field(default_factory=dict)
    #: every settled failure, carried ones included.
    failures: List[PointFailure] = field(default_factory=list)


def run_sweep(runner: SweepRunner, backend: ExecutionBackend,
              tasks: Iterable[PointTask],
              on_outcome: Callable[[PointOutcome, SweepTally], None],
              limit: Optional[int] = None,
              carried: Optional[Mapping[str, PointFailure]] = None,
              stop: Optional[Callable[[], bool]] = None) -> SweepTally:
    """Run ``tasks`` through ``backend``; see the module docstring.

    ``on_outcome`` sees every outcome the loop settles, after the tally
    has recorded it.
    """
    tally = SweepTally()

    def settle(outcome: PointOutcome) -> None:
        tally.resolved += 1
        if outcome.failure is not None:
            tally.failures.append(outcome.failure)
        else:
            if outcome.source == "fresh":
                runner.settle_result(outcome.result)
            tally.results.setdefault(outcome.task.key, outcome.result)
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
        tally.dispatched += 1
        for outcome in backend.submit(task):
            settle(outcome)
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
