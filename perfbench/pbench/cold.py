"""Cold sweeps: ``repro-sim sweep`` processes on empty result caches.

Each (grid, program) job is one ``repro-sim sweep --grid G --benchmarks
P`` process on the serial backend.  It starts the way a user's sweep
does: artifacts on disk from set-up, nothing in memory, and an empty
result cache.  Its points are checked afterwards against the recorded
counters, outside the timed region.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .children import child_env, repro_cli, run_child
from .gate import Expected
from .workloads import Job

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class JobOutcome:
    wall_s: float
    peak_rss_mb: float
    attempted: int
    failed: List[str]


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def prepare_artifacts(programs: Sequence[str], artifact_dir: str) -> None:
    """Compile, profile, enlarge, trace and save each program."""
    from repro.harness.artifacts import ArtifactStore
    from repro.workloads import WORKLOADS

    store = ArtifactStore(root=artifact_dir)
    for name in programs:
        store.ensure(WORKLOADS[name], 1)


def setup(programs: Sequence[str], work: str) -> Tuple[List[float], str]:
    """Set up from empty directories several times; returns the times
    and the artifact directory of the last set-up."""
    times = []
    artifact_dir = ""
    for rep in range(SETUP_REPEATS):
        artifact_dir = fresh_dir(os.path.join(work, f"setup{rep}", "artifacts"))
        start = time.perf_counter()
        prepare_artifacts(programs, artifact_dir)
        times.append(time.perf_counter() - start)
    return times, artifact_dir


def check_job(expected: Expected, grid: str, programs: Sequence[str],
              cache_dir: str, limit: Optional[int]) -> Tuple[int, List[str]]:
    """Points attempted, and one message per failed point.

    With ``limit`` the sweep simulates only its first ``limit`` points,
    in its own order: the points found are checked and any shortfall
    counts as failed.
    """
    from repro.harness.cache import ResultCache

    cache = ResultCache(os.path.join(cache_dir, "results.json"))
    points = [(pid, cache.get(program, config, expected.scale))
              for program in programs
              for pid, config in expected.job_points(grid, program)]
    if limit is not None:
        attempted = min(limit, len(points))
        points = [(pid, result) for pid, result in points if result is not None]
        missing = attempted - len(points)
    else:
        attempted, missing = len(points), 0
    failed = [f"{pid}: {','.join(wrong)}" for pid, result in points
              for wrong in [expected.mismatches(pid, result)] if wrong]
    failed += [f"{grid}|{','.join(programs)}: a point is missing"] * missing
    return attempted, failed


def sweep_job(grid: str, programs: Sequence[str], artifact_dir: str,
              job_dir: str, expected: Expected,
              limit: Optional[int]) -> JobOutcome:
    """One timed ``repro-sim sweep`` process, then its check."""
    cache_dir = fresh_dir(os.path.join(job_dir, "cache"))
    argv = repro_cli("sweep", "--grid", grid, "--benchmarks", ",".join(programs))
    if limit is not None:
        argv += ["--limit", str(limit)]
    run = run_child(argv, child_env(cache_dir, artifact_dir),
                    os.path.join(job_dir, "sweep.log"))
    attempted, failed = check_job(expected, grid, programs, cache_dir, limit)
    if run.returncode != 0 and not failed:
        failed = [f"{grid}|{','.join(programs)}: sweep exited"
                  f" {run.returncode}"]
    return JobOutcome(run.wall_s, run.peak_rss_mb, attempted, failed)


def job_name(grid: str, programs: Sequence[str]) -> str:
    return "-".join((grid,) + tuple(programs))


def sweep_pass(jobs: Sequence[Job], artifact_dir: str, work: str,
               expected: Expected, limit: Optional[int]) -> List[JobOutcome]:
    return [
        sweep_job(grid, programs, artifact_dir,
                  os.path.join(work, job_name(grid, programs)), expected,
                  limit)
        for grid, programs in jobs
    ]


def measure(jobs: Sequence[Job], artifact_dir: str, work: str,
            expected: Expected, seconds: float,
            limit: Optional[int]) -> List[JobOutcome]:
    """Whole passes over the jobs until ``seconds`` of sweeping is timed.

    Whole passes keep every run's mix of programs and grids the same, so
    a run that is cut by time never weighs one program more than another.
    """
    outcomes: List[JobOutcome] = []
    passes = 0
    while not outcomes or sum(o.wall_s for o in outcomes) < seconds:
        outcomes += sweep_pass(jobs, artifact_dir,
                               os.path.join(work, f"pass{passes}"),
                               expected, limit)
        passes += 1
    return outcomes
