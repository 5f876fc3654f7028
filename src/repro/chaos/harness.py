"""The chaos run harness: fault-free vs faulted arms, then convergence.

``run_chaos`` executes the same workload twice in throwaway
cache/artifact directories -- a *baseline* arm with no chaos engine and
a *chaos* arm under the given :class:`FaultPlan` -- and then asserts the
convergence contract (DESIGN.md §14):

* the final result cache is byte-identical across arms;
* (service mode) journal replay across a daemon restart reaches the
  same terminal job states, with identical job ids;
* neither arm recorded a permanent point failure;
* no ``*.tmp`` debris anywhere, and no quarantine files in the
  baseline arm.

This module imports the whole sweep/service stack, so it is *not*
re-exported from ``repro.chaos`` -- the CLI imports it lazily.
"""
from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..harness.backend import make_backend
from ..harness.checkpoint import SweepCheckpoint, default_checkpoint_path
from ..harness.executor import ExecutionPolicy
from ..harness.runner import SweepRunner
from ..harness.sweep import grid_tasks, run_checkpointed
from ..telemetry.collector import Collector, MetricsCollector, NULL_COLLECTOR
from ..telemetry.logging import get_logger
from ..workloads.base import clear_prepared_cache
from .inject import ChaosEngine, activate, deactivate
from .plan import FaultPlan

_LOG = get_logger("chaos")

#: Per-attempt wall budget in the chaos arms.  Injected hangs sleep a
#: little past this so the timeout machinery (not patience) unwinds them.
CHAOS_TIMEOUT_S = 5.0

#: The chaos policy grants retries to injected timeouts and watchdog
#: hangs -- under a fault plan those are recoverable, not systematic.
CHAOS_RETRY_KINDS = ("timeout", "hang")

#: The grid both arms run (the smoke plans' hit indices assume it).
CHAOS_GRID = "smoke"


@dataclass
class ChaosReport:
    """Everything one ``run_chaos`` invocation learned."""

    mode: str
    plan_name: str
    seed: int
    converged: bool
    problems: List[str] = field(default_factory=list)
    injected: Dict[str, int] = field(default_factory=dict)
    recovered: Dict[str, int] = field(default_factory=dict)
    sites: List[str] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    baseline_wall_s: float = 0.0
    chaos_wall_s: float = 0.0
    cache_entries: int = 0
    job_states: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.chaos.report/1",
            "mode": self.mode,
            "plan": self.plan_name,
            "seed": self.seed,
            "converged": self.converged,
            "problems": list(self.problems),
            "injected": dict(sorted(self.injected.items())),
            "recovered": dict(sorted(self.recovered.items())),
            "sites": list(self.sites),
            "kinds": list(self.kinds),
            "baseline_wall_s": round(self.baseline_wall_s, 3),
            "chaos_wall_s": round(self.chaos_wall_s, 3),
            "cache_entries": self.cache_entries,
            "job_states": dict(sorted(self.job_states.items())),
        }


@dataclass
class _ArmResult:
    cache_bytes: bytes = b""
    cache_entries: int = 0
    failures: int = 0
    job_states: Dict[str, str] = field(default_factory=dict)
    wall_s: float = 0.0


def _chaos_policy() -> ExecutionPolicy:
    return ExecutionPolicy(timeout_s=CHAOS_TIMEOUT_S, retries=3,
                           retry_kinds=CHAOS_RETRY_KINDS)


def _walk_files(root: str) -> List[str]:
    out: List[str] = []
    for directory, _dirs, files in os.walk(root):
        for name in files:
            out.append(os.path.join(directory, name))
    return out


# ----------------------------------------------------------------------
def _run_sweep_arm(workdir: str, benchmarks: Tuple[str, ...], scale: int,
                   limit: Optional[int], collector: Collector) -> _ArmResult:
    """Two sweep passes (cold, then warm) over the chaos grid."""
    tasks = grid_tasks(CHAOS_GRID, benchmarks, scale, limit)
    arm = _ArmResult()
    for _pass in ("cold", "warm"):
        clear_prepared_cache()
        runner = SweepRunner(benchmarks=list(benchmarks), scale=scale,
                             collector=collector)
        checkpoint = SweepCheckpoint(
            default_checkpoint_path(), benchmarks=list(benchmarks),
            scale=scale,
        )
        tally = run_checkpointed(runner, make_backend(runner, _chaos_policy()),
                                 tasks, checkpoint)
        arm.failures += len(tally.failures)
    cache_path = os.path.join(workdir, "results.json")
    if os.path.exists(cache_path):
        with open(cache_path, "rb") as handle:
            arm.cache_bytes = handle.read()
        arm.cache_entries = len(json.loads(arm.cache_bytes))
    return arm


def _run_service_arm(workdir: str, benchmarks: Tuple[str, ...], scale: int,
                     limit: Optional[int],
                     collector: Collector) -> _ArmResult:
    """A daemon lifetime, a crash-restart, then a warm submit."""
    from ..service.client import JobFailed, ServiceClient
    from ..service.http_api import make_server
    from ..service.scheduler import JobScheduler

    import random

    journal_path = os.path.join(workdir, "service.journal.jsonl")
    spec: Dict[str, Any] = {"benchmarks": list(benchmarks),
                            "grid": CHAOS_GRID}
    if limit is not None:
        spec["limit"] = limit
    arm = _ArmResult()

    def start_daemon(scheduler: JobScheduler):
        server = make_server(scheduler, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}",
            timeout_s=60.0, retries=8, backoff_s=0.05, max_backoff_s=1.0,
            rng=random.Random(0),
        )
        return server, client

    def stop_daemon(server, scheduler: JobScheduler) -> None:
        server.shutdown()
        server.server_close()
        scheduler.stop(cancel_pending=False)

    # -- phase 1: cold daemon -----------------------------------------
    clear_prepared_cache()
    runner = SweepRunner(benchmarks=list(benchmarks), scale=scale,
                         collector=collector)
    scheduler = JobScheduler(runner, policy=_chaos_policy(), jobs=1,
                             journal_path=journal_path)
    scheduler.start()
    server, client = start_daemon(scheduler)
    try:
        client.wait_ready()
        job = client.submit(spec)
        try:
            client.wait(job["job_id"])
        except JobFailed as exc:
            arm.failures += 1
            _LOG.warning("chaos_cold_job_failed", job_id=job["job_id"],
                         error=str(exc))
    finally:
        stop_daemon(server, scheduler)

    # -- phase 2: restart (journal replay), then a warm submit --------
    clear_prepared_cache()
    runner = SweepRunner(benchmarks=list(benchmarks), scale=scale,
                         collector=collector)
    scheduler = JobScheduler(runner, policy=_chaos_policy(), jobs=1,
                             journal_path=journal_path)
    # The scheduler thread is NOT started yet: submitting first keeps
    # the journal append order deterministic (warm accept, then the
    # recovered job's state records), so hit-indexed journal faults land
    # on the same records in every run.
    server, client = start_daemon(scheduler)
    try:
        client.wait_ready()
        warm = client.submit(spec)
        scheduler.start()
        try:
            client.wait(warm["job_id"])
        except JobFailed as exc:
            arm.failures += 1
            _LOG.warning("chaos_warm_job_failed", job_id=warm["job_id"],
                         error=str(exc))
        for snapshot in client.jobs():
            arm.job_states[snapshot["job_id"]] = snapshot["state"]
            if snapshot["points"]["failed"]:
                arm.failures += snapshot["points"]["failed"]
    finally:
        stop_daemon(server, scheduler)

    cache_path = os.path.join(workdir, "results.json")
    if os.path.exists(cache_path):
        with open(cache_path, "rb") as handle:
            arm.cache_bytes = handle.read()
        arm.cache_entries = len(json.loads(arm.cache_bytes))
    return arm


# ----------------------------------------------------------------------
def _run_arm(mode: str, workdir: str, benchmarks: Tuple[str, ...],
             scale: int, limit: Optional[int], collector: Collector,
             engine: Optional[ChaosEngine]) -> _ArmResult:
    saved = {name: os.environ.get(name)
             for name in ("REPRO_CACHE_DIR", "REPRO_ARTIFACT_DIR")}
    os.environ["REPRO_CACHE_DIR"] = workdir
    os.environ["REPRO_ARTIFACT_DIR"] = os.path.join(workdir, "workloads")
    if engine is not None:
        activate(engine)
    start = time.perf_counter()
    try:
        if mode == "sweep":
            arm = _run_sweep_arm(workdir, benchmarks, scale, limit,
                                 collector)
        else:
            arm = _run_service_arm(workdir, benchmarks, scale, limit,
                                   collector)
    finally:
        if engine is not None:
            deactivate()
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        clear_prepared_cache()
    arm.wall_s = time.perf_counter() - start
    return arm


def run_chaos(mode: str, plan: FaultPlan,
              benchmarks: Tuple[str, ...] = ("grep",), scale: int = 1,
              limit: Optional[int] = None,
              collector: Collector = NULL_COLLECTOR) -> ChaosReport:
    """Baseline arm, chaos arm, convergence checks; returns the report.

    The chaos arms run serial (``jobs=1``): a process pool would fork
    the active engine into workers, where its counters and schedule
    could not be observed or kept deterministic.
    """
    if mode not in ("sweep", "service"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    engine = ChaosEngine(plan)
    report = ChaosReport(mode=mode, plan_name=plan.name, seed=plan.seed,
                         converged=False)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        base_dir = os.path.join(tmp, "baseline")
        chaos_dir = os.path.join(tmp, "chaos")
        os.makedirs(base_dir)
        os.makedirs(chaos_dir)
        _LOG.info("chaos_baseline_start", mode=mode)
        baseline = _run_arm(mode, base_dir, benchmarks, scale, limit,
                            MetricsCollector(), engine=None)
        _LOG.info("chaos_arm_start", mode=mode, plan=plan.name,
                  seed=plan.seed, rules=len(plan.rules))
        chaos = _run_arm(mode, chaos_dir, benchmarks, scale, limit,
                         collector, engine=engine)

        problems = report.problems
        if baseline.failures:
            problems.append(
                f"baseline arm recorded {baseline.failures} point"
                " failure(s); the fault-free run must be clean"
            )
        if chaos.failures:
            problems.append(
                f"chaos arm recorded {chaos.failures} permanent point"
                " failure(s); every injected fault must be recoverable"
            )
        if not baseline.cache_bytes:
            problems.append("baseline arm produced no result cache")
        if baseline.cache_bytes != chaos.cache_bytes:
            problems.append(
                "result caches diverge: chaos arm is not byte-identical"
                f" to the fault-free run ({len(baseline.cache_bytes)} vs"
                f" {len(chaos.cache_bytes)} bytes)"
            )
        if mode == "service" and baseline.job_states != chaos.job_states:
            problems.append(
                "terminal job states diverge:"
                f" baseline={baseline.job_states}"
                f" chaos={chaos.job_states}"
            )
        for path in _walk_files(tmp):
            if path.endswith(".tmp"):
                problems.append(f"partial-file debris left behind: {path}")
            if os.sep + ".quarantine" + os.sep in path and \
                    path.startswith(base_dir):
                problems.append(
                    f"quarantine leak in the fault-free arm: {path}"
                )

        report.injected = dict(engine.injected)
        report.recovered = dict(engine.recovered)
        report.sites = sorted({key.split("/")[0]
                               for key in engine.injected})
        report.kinds = sorted({key.split("/", 1)[1]
                               for key in engine.injected})
        report.baseline_wall_s = baseline.wall_s
        report.chaos_wall_s = chaos.wall_s
        report.cache_entries = baseline.cache_entries
        report.job_states = dict(chaos.job_states)
        report.converged = not problems

    # Fold the engine's private counters into the shared collector now
    # that both arms are done (main thread: single-writer safe).
    for key, value in engine.injected.items():
        collector.count(f"chaos.injected.{key.replace('/', '.')}", value)
    for key, value in engine.recovered.items():
        collector.count(f"chaos.recovered.{key}", value)
    collector.count("chaos.injected", sum(engine.injected.values()))
    collector.count("chaos.recovered", sum(engine.recovered.values()))
    return report
