"""Sweep runner: simulate many (benchmark, configuration) points.

Prepared workloads (compile + profile + enlarge + functional traces) are
cached in-process; timing results are cached on disk so interrupted or
repeated sweeps resume where they left off.  The runner holds no record
of a run: what one sweep settled lives in the sweep loop's tally
(:class:`repro.harness.sweep.SweepTally`).
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
from ..workloads import PAPER_WORKLOAD_NAMES, WORKLOADS, prepared
from ..workloads.base import ensure_artifacts
from .cache import ResultCache
from .errors import WorkloadPrepareError

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
                 collector: Optional[Collector] = None):
        self.benchmarks = list(benchmarks) if benchmarks else default_benchmarks()
        unknown = [name for name in self.benchmarks if name not in WORKLOADS]
        if unknown:
            raise ValueError(f"unknown benchmarks: {unknown}")
        self.scale = default_scale() if scale is None else scale
        self.collector = NULL_COLLECTOR if collector is None else collector
        self.cache = (
            ResultCache(collector=self.collector) if use_cache else None
        )

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

    def cache_lookup(self, benchmark: str, config: MachineConfig,
                     key: Optional[str] = None) -> Optional[SimResult]:
        """Probe the result cache, counting a hit as ``sweep.cache.hit``.

        ``key`` is the point's result-cache key when the caller already
        holds it (a :class:`~repro.harness.backend.PointTask` does).
        """
        if self.cache is None:
            return None
        hit = self.cache.get(benchmark, config, self.scale, key)
        if hit is not None:
            self.collector.count("sweep.cache.hit")
        return hit

    def simulate_point(self, benchmark: str, config: MachineConfig,
                       collector: Optional[Collector] = None) -> SimResult:
        """Prepare and simulate one point, bypassing the result cache.

        The point's telemetry goes to ``collector``, the runner's own
        by default; a timed attempt passes a private one, so a thread
        its timeout abandons never writes the runner's collector.  The
        engine watchdog's limit comes from ``REPRO_MAX_CYCLES``, which
        pool workers and the daemon inherit; only the chaos
        ``engine.budget`` rule passes a budget of its own.
        """
        chaos_fire("point.simulate")
        if collector is None:
            collector = self.collector
        start = time.perf_counter()
        workload = self.workload(benchmark)
        prepared_at = time.perf_counter()
        rule = chaos_fire("engine.budget")
        result = simulate(workload, config, collector=collector,
                          max_cycles=None if rule is None else rule.budget)
        end = time.perf_counter()
        collector.count("sweep.cache.miss")
        collector.observe("sweep.point.prepare_s", prepared_at - start)
        collector.observe("sweep.point.simulate_s", end - prepared_at)
        collector.observe("sweep.point.wall_s", end - start)
        return result

    def settle_result(self, result: SimResult) -> None:
        """Write one fresh result to the result cache.

        Only the sweep loop's settle step and :meth:`run_point` call
        this, so each fresh point reaches the cache once, in the parent
        process.  A failed cache write counts as
        ``sweep.cache.store_error`` and the result is kept.
        """
        if self.cache is not None:
            try:
                self.cache.put(result, self.scale)
            except Exception:  # noqa: BLE001 - a cache write must not
                self.collector.count("sweep.cache.store_error")  # lose the result

    def run_point(self, benchmark: str, config: MachineConfig) -> SimResult:
        """One simulation, served from cache when available.

        When the runner's collector is enabled, each point counts a
        result-cache hit or miss, and a miss observes its wall time
        split into workload preparation and simulation.

        This is the fail-fast path: errors propagate.  For graceful
        degradation (timeouts, retries, structured ``PointFailure``
        records) run the point through
        :func:`repro.harness.sweep.run_sweep`.
        """
        result = self.cache_lookup(benchmark, config)
        if result is None:
            result = self.simulate_point(benchmark, config)
            self.settle_result(result)
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
    """Re-arm the once-per-process zero-IPC stderr warning.

    A fresh process starts armed, so one ``report`` run warns at most
    once however many means it computes; callers that compute several
    independent sets of means in one process re-arm it between them.
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
    occurrence per process is warned about on stderr (see
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
