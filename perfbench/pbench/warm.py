"""The warm service loop: one client, one job at a time, against the daemon.

Set-up fills the daemon's result cache with ``repro-sim sweep`` and
starts ``repro-sim serve --validate --jobs 1`` until ``/healthz``
answers.  The loop then submits the grid, long-polls until the job is
done and fetches its results, and repeats: a closed loop of one client.
A run is several sessions, each a set-up from empty directories and a
loop against that daemon.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .children import Daemon, child_env, repro_cli, run_child
from .cold import SETUP_REPEATS, fresh_dir
from .gate import Expected

#: Jobs run before timing starts: the daemon loads its result cache on
#: the first job, which users pay once per daemon, not per job.
WARMUP_JOBS = 10

#: An ``after`` past any event's sequence number.  A long-poll for
#: events after it returns only when the job is terminal (or the poll
#: times out), so each job costs one long-poll however its events
#: interleave with the client's requests.
UNTIL_DONE = 2**62

#: Jobs timed per session.  The daemon keeps every finished job in
#: memory, so its memory and its latency tail grow with the jobs it has
#: served; a fixed count keeps both comparable between runs and commits.
SESSION_JOBS = 200

#: Jobs per block.  Latency percentiles and throughput are taken per
#: block and the median over blocks is reported, so a few seconds of
#: interference from other tenants of the host move one block, not the
#: run.  A block of 100 leaves ten samples beyond its p90.
BLOCK_JOBS = 100


@dataclass
class JobSample:
    latency_s: float
    failure: Optional[str]
    #: the fetched job document (None when the job could not be fetched)
    final: Optional[Dict[str, Any]] = None


def job_spec(programs: Sequence[str], limit: Optional[int]) -> Dict[str, Any]:
    """The job the loop submits.

    With ``limit`` (the smallest size) only the first program runs, so
    the fill sweep and the job's fan-out cover the same leading points.
    """
    spec: Dict[str, Any] = {"grid": "smoke", "benchmarks": list(programs)}
    if limit is not None:
        spec["benchmarks"] = spec["benchmarks"][:1]
        spec["limit"] = limit
    return spec


def spec_points(spec: Dict[str, Any],
                expected: Expected) -> List[Tuple[str, str, Any]]:
    """``(program, point id, config)`` of the job's fan-out, benchmark-major
    like the daemon's."""
    points = [(program, pid, config) for program in spec["benchmarks"]
              for pid, config in expected.job_points("smoke", program)]
    return points[:spec["limit"]] if "limit" in spec else points


def start(spec: Dict[str, Any], rep_dir: str,
          artifact_dir: Optional[str] = None) -> Tuple[Daemon, str]:
    """Fill the result cache with the job's points, then start the
    daemon until it answers.  Without ``artifact_dir`` the fill sweep
    starts from an empty artifact directory and prepares the programs."""
    from repro.service import ServiceClient

    cache_dir = fresh_dir(os.path.join(rep_dir, "cache"))
    if artifact_dir is None:
        artifact_dir = fresh_dir(os.path.join(rep_dir, "artifacts"))
    argv = repro_cli("sweep", "--grid", "smoke",
                     "--benchmarks", ",".join(spec["benchmarks"]))
    if "limit" in spec:
        argv += ["--limit", str(spec["limit"])]
    fill = run_child(argv, child_env(cache_dir, artifact_dir),
                     os.path.join(rep_dir, "fill.log"))
    if fill.returncode != 0:
        raise RuntimeError(f"cache fill exited {fill.returncode};"
                           f" see {rep_dir}/fill.log")
    daemon = Daemon(cache_dir, artifact_dir,
                    os.path.join(rep_dir, "serve.log"))
    try:
        url = daemon.wait_url()
        ServiceClient(url).wait_ready()
    except BaseException:
        daemon.stop()
        raise
    return daemon, url


@dataclass
class Session:
    setup_s: float
    warmup: List[JobSample]
    timed: List[JobSample]
    peak_rss_mb: float


def sessions(spec: Dict[str, Any], work: str, expected: Expected,
             seconds: float) -> List[Session]:
    """Set up, time ``SESSION_JOBS`` jobs and stop, several times.

    Spreading the timed jobs over sessions seconds apart keeps a spell
    of interference from other tenants of the host, or of the daemon's
    threads falling into a different hand-off pattern, to one session.
    ``seconds`` bounds the timed loops of all sessions together.
    """
    n_points = len(spec_points(spec, expected))
    out = []
    for rep in range(SETUP_REPEATS):
        start_s = time.perf_counter()
        daemon, url = start(spec, os.path.join(work, f"setup{rep}"))
        setup_s = time.perf_counter() - start_s
        try:
            warmup = run_jobs(url, spec, expected, n_points, WARMUP_JOBS)
            timed = run_jobs(url, spec, expected, n_points, SESSION_JOBS,
                             seconds=seconds / SETUP_REPEATS)
        finally:
            run = daemon.stop()
        out.append(Session(setup_s, warmup, timed, run.peak_rss_mb))
    return out


def check_job(final: Dict[str, Any], expected: Expected,
              n_points: int) -> Optional[str]:
    """Why a finished job is wrong, or None when it is right."""
    if final.get("state") != "done":
        return f"state {final.get('state')}"
    points = final.get("points", {})
    if points.get("cached") != n_points or points.get("total") != n_points:
        return f"points {points}"
    validation = final.get("validation")
    if validation is None:
        return "no oracle report"
    errors = validation.get("severities", {}).get("error", 0)
    if errors:
        return f"oracle reported {errors} error(s)"
    results = final.get("results", [])
    if len(results) != n_points:
        return f"{len(results)} results for {n_points} points"
    for record in results:
        pid = f"{record.get('benchmark')}|{record.get('config')}"
        if record.get("cycles") != expected.cycles(pid):
            return f"{pid}: cycles {record.get('cycles')}"
    return None


def _no_span(name: str) -> Any:
    return contextlib.nullcontext()


def one_job(client: Any, spec: Dict[str, Any],
            span: Callable[[str], Any] = _no_span) -> Dict[str, Any]:
    """Submit, long-poll until the job is terminal, fetch its results."""
    from repro.service.jobs import TERMINAL_STATES

    with span("service.submit"):
        job_id = client.submit(spec)["job_id"]
    with span("service.wait"):
        while client.events(job_id, after=UNTIL_DONE)[2].get(
                "state") not in TERMINAL_STATES:
            pass
    with span("service.fetch"):
        return client.job(job_id)


def run_jobs(url: str, spec: Dict[str, Any], expected: Expected,
             n_points: int, count: int, seconds: float = float("inf"),
             span: Callable[[str], Any] = _no_span) -> List[JobSample]:
    """Closed loop of ``count`` jobs, cut short after ``seconds``."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(url)
    samples: List[JobSample] = []
    loop_start = time.perf_counter()
    while (len(samples) < count
           and time.perf_counter() - loop_start < seconds):
        start_s = time.perf_counter()
        try:
            with span("service.job"):
                final = one_job(client, spec, span)
        except ServiceError as exc:
            latency = time.perf_counter() - start_s
            samples.append(JobSample(latency, f"{type(exc).__name__}: {exc}"))
            continue
        latency = time.perf_counter() - start_s
        samples.append(JobSample(latency,
                                 check_job(final, expected, n_points), final))
    return samples
