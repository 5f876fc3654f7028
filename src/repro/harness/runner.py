"""Sweep runner: simulate many (benchmark, configuration) points.

Prepared workloads (compile + profile + enlarge + functional traces) are
cached in-process; timing results are cached on disk so interrupted or
repeated sweeps resume where they left off.
"""

from __future__ import annotations

import math
import os
import time
from typing import List, Optional, Sequence

from ..chaos.inject import fire as chaos_fire
from ..machine.config import MachineConfig
from ..machine.simulator import PreparedWorkload, simulate
from ..stats.results import SimResult
from ..telemetry.collector import Collector, NULL_COLLECTOR
from ..telemetry.logging import get_logger
from ..validate.findings import ValidationFinding
from ..validate.invariants import check_result
from ..workloads import PAPER_WORKLOAD_NAMES, WORKLOADS, prepared
from ..workloads.base import ensure_artifacts
from .cache import ResultCache, result_key
from .errors import PointFailure, WorkloadPrepareError

_LOG = get_logger("sweep")


def default_benchmarks() -> List[str]:
    """Benchmarks used when the caller does not choose.

    The paper's five, so figure pipelines and recorded baselines keep
    their composition; the widening benchmarks (hashjoin, jsontok,
    crc32) are opted into explicitly.  Overridable via the
    ``REPRO_BENCH_WORKLOADS`` environment variable (comma-separated
    names).
    """
    raw = os.environ.get("REPRO_BENCH_WORKLOADS")
    if raw:
        names = [name.strip() for name in raw.split(",") if name.strip()]
        unknown = [name for name in names if name not in WORKLOADS]
        if unknown:
            raise ValueError(f"unknown benchmarks: {unknown}")
        return names
    return list(PAPER_WORKLOAD_NAMES)


def default_scale() -> int:
    """Input scale for harness runs (env-overridable)."""
    return int(os.environ.get("REPRO_BENCH_SCALE", "1"))


class SweepRunner:
    """Runs timing simulations over a set of benchmarks, with caching."""

    def __init__(self, benchmarks: Optional[Sequence[str]] = None,
                 scale: Optional[int] = None, use_cache: bool = True,
                 verbose: bool = False,
                 collector: Optional[Collector] = None,
                 max_cycles: Optional[int] = None,
                 validate: bool = False):
        self.benchmarks = list(benchmarks) if benchmarks else default_benchmarks()
        unknown = [name for name in self.benchmarks if name not in WORKLOADS]
        if unknown:
            raise ValueError(f"unknown benchmarks: {unknown}")
        self.scale = default_scale() if scale is None else scale
        self.collector = NULL_COLLECTOR if collector is None else collector
        self.cache = (
            ResultCache(collector=self.collector) if use_cache else None
        )
        self.verbose = verbose
        #: engine watchdog limit (None: REPRO_MAX_CYCLES or the default).
        self.max_cycles = max_cycles
        #: PointFailure records accumulated by fault-tolerant execution
        #: (see repro.harness.executor and the sweep loop).
        self.failures: List[PointFailure] = []
        #: validation oracle hook (see repro.validate): when enabled the
        #: runner keeps every result it serves and checks per-result
        #: invariants eagerly.  Only the sweep's parent process enables
        #: this -- pool workers mail results back and the parent observes
        #: them under the single-writer merge, so serial and parallel
        #: sweeps of one grid collect identical findings.
        self.validate = validate
        self.results: List[SimResult] = []
        self.findings: List[ValidationFinding] = []
        self._observed_keys: set = set()

    # ------------------------------------------------------------------
    def workload(self, name: str) -> PreparedWorkload:
        """The prepared (traced) workload for one benchmark.

        Raises:
            WorkloadPrepareError: wrapping whatever preparation raised
                (``WorkloadMismatch``, compiler errors, corrupted
                artefacts), so prepare-stage failures are typed and
                never mistaken for simulation failures.
        """
        try:
            return prepared(WORKLOADS[name], scale=self.scale)
        except Exception as exc:
            raise WorkloadPrepareError(name, exc) from exc

    def prepare_artifacts(self, name: str) -> None:
        """Materialize one benchmark's on-disk artifacts without loading.

        The parent side of a parallel sweep calls this once per
        benchmark before dispatching its points, so pool workers load
        artifacts instead of re-compiling and re-tracing.

        Raises:
            WorkloadPrepareError: wrapping whatever preparation raised.
        """
        try:
            ensure_artifacts(WORKLOADS[name], scale=self.scale)
        except Exception as exc:
            raise WorkloadPrepareError(name, exc) from exc

    def observe_result(self, result: SimResult) -> None:
        """Feed one served result to the validation oracle (if enabled).

        Called exactly once per point by every path that delivers a
        result to the sweep's parent process: cache hits here in
        :meth:`cache_lookup`, fresh serial results by the execution
        backends, and parallel results by the pool harvest.  Invariant
        findings are collected eagerly; dominance and baseline layers
        run over :attr:`results` once the grid is complete.
        """
        if not self.validate:
            return
        key = result_key(result.benchmark, result.config, self.scale)
        if key in self._observed_keys:
            # A point can reach the parent twice (e.g. a benchmark
            # listed twice); one grid point contributes one result to
            # the oracle.
            return
        self._observed_keys.add(key)
        self.results.append(result)
        collector = self.collector
        if collector.enabled:
            check_start = time.perf_counter()
            found = check_result(result)
            collector.add_span(
                "phase.validate", time.perf_counter() - check_start,
                benchmark=result.benchmark, config=str(result.config),
            )
        else:
            found = check_result(result)
        if found:
            self.findings.extend(found)
            self.collector.count("validate.invariant.violations", len(found))

    def cache_lookup(self, benchmark: str,
                     config: MachineConfig) -> Optional[SimResult]:
        """Probe the result cache, recording hit telemetry."""
        if self.cache is None:
            return None
        hit = self.cache.get(benchmark, config, self.scale)
        if hit is None:
            return None
        if self.collector.enabled:
            self.collector.count("sweep.cache.hit")
            self.collector.record_point(
                benchmark=benchmark, config=str(config),
                cached=True, wall_s=0.0,
                ipc=hit.retired_per_cycle,
            )
        self.observe_result(hit)
        return hit

    def simulate_point(self, benchmark: str,
                       config: MachineConfig) -> SimResult:
        """Prepare and simulate one point, bypassing the result cache."""
        chaos_fire("point.simulate")
        collector = self.collector
        start = time.perf_counter()
        workload = self.workload(benchmark)
        prepared_at = time.perf_counter()
        max_cycles = self.max_cycles
        rule = chaos_fire("engine.budget")
        if rule is not None:
            max_cycles = rule.budget
        if collector.enabled:
            point = str(config)
            result = simulate(workload, config, collector=collector,
                              max_cycles=max_cycles)
            end = time.perf_counter()
            collector.count("sweep.cache.miss")
            collector.observe("sweep.point.prepare_s", prepared_at - start)
            collector.observe("sweep.point.simulate_s", end - prepared_at)
            collector.observe("sweep.point.wall_s", end - start)
            collector.add_span("phase.prepare", prepared_at - start,
                               benchmark=benchmark, config=point)
            collector.add_span("phase.simulate", end - prepared_at,
                               benchmark=benchmark, config=point)
            collector.record_point(
                benchmark=benchmark, config=point, cached=False,
                wall_s=end - start, prepare_s=prepared_at - start,
                simulate_s=end - prepared_at,
                ipc=result.retired_per_cycle,
            )
        else:
            result = simulate(workload, config, max_cycles=max_cycles)
        if self.verbose:
            _LOG.info("point", benchmark=benchmark, config=str(config),
                      ipc=round(result.retired_per_cycle, 4),
                      cycles=result.cycles)
        return result

    def cache_store(self, result: SimResult) -> None:
        """Persist one freshly simulated result."""
        if self.cache is not None:
            self.cache.put(result, self.scale)

    def run_point(self, benchmark: str, config: MachineConfig) -> SimResult:
        """One simulation, served from cache when available.

        When the runner's collector is enabled, each point records its
        wall time split into workload preparation and simulation, the
        result-cache hit/miss counters, and a per-point summary record
        (the ``points`` list of ``telemetry.json``).

        This is the fail-fast path: errors propagate.  For graceful
        degradation (timeouts, retries, structured ``PointFailure``
        records) wrap the runner in a
        :class:`repro.harness.executor.PointExecutor`.
        """
        hit = self.cache_lookup(benchmark, config)
        if hit is not None:
            return hit
        result = self.simulate_point(benchmark, config)
        self.cache_store(result)
        self.observe_result(result)
        return result

    # ------------------------------------------------------------------
    def mean_ipc(self, config: MachineConfig,
                 benchmarks: Optional[Sequence[str]] = None) -> float:
        """Geometric-mean retired-nodes-per-cycle across benchmarks."""
        names = list(benchmarks) if benchmarks else self.benchmarks
        values = [self.run_point(name, config).retired_per_cycle for name in names]
        return geometric_mean(values, collector=self.collector,
                              label=f"IPC at {config}")

    def mean_redundancy(self, config: MachineConfig,
                        benchmarks: Optional[Sequence[str]] = None) -> float:
        """Arithmetic-mean redundancy across benchmarks."""
        names = list(benchmarks) if benchmarks else self.benchmarks
        values = [self.run_point(name, config).redundancy for name in names]
        return sum(values) / len(values)


#: Whether the zero-IPC stderr warning has fired since the last
#: :func:`reset_zero_ipc_warning`.  Dedup is deliberate: a 2800-point
#: grid with a few degraded points calls :func:`geometric_mean` per
#: figure cell, and one warning per call would bury stderr.  The
#: ``sweep.zero_ipc`` counter still counts every floored value.
_ZERO_IPC_WARNED = False


def reset_zero_ipc_warning() -> None:
    """Re-arm the once-per-sweep zero-IPC stderr warning.

    The sweep/report entry points call this so each run warns exactly
    once however many means it computes.
    """
    global _ZERO_IPC_WARNED
    _ZERO_IPC_WARNED = False


def geometric_mean(values: Sequence[float],
                   collector: Collector = NULL_COLLECTOR,
                   label: str = "value") -> float:
    """Geometric mean, tolerating zeros by flooring at a tiny epsilon.

    A zero IPC means a degraded or failed point, and silently flooring
    it would bury that in the mean -- so every floored value is counted
    under the ``sweep.zero_ipc`` telemetry counter, and the first
    occurrence per sweep is warned about on stderr (see
    :func:`reset_zero_ipc_warning`).
    """
    if not values:
        return 0.0
    floored = sum(1 for value in values if value <= 0.0)
    if floored:
        collector.count("sweep.zero_ipc", floored)
        global _ZERO_IPC_WARNED
        if not _ZERO_IPC_WARNED:
            _ZERO_IPC_WARNED = True
            _LOG.warning(
                "zero_ipc_floored", label=label, count=floored,
                of=len(values),
                note=(
                    "zero/negative values clamped to 1e-12 in a geometric"
                    " mean; the mean hides degraded points (further"
                    " warnings suppressed for this sweep; see the"
                    " sweep.zero_ipc counter)"
                ),
            )
    total = 0.0
    for value in values:
        total += math.log(max(value, 1e-12))
    return math.exp(total / len(values))
