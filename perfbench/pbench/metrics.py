"""Metric names and units: the end-to-end set and the per-layer set."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

#: Reported by every untraced run (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer() -> Dict[str, str]:
    from .traced import (BRANCH_PREDICTORS, CACHED_MEMORIES, ENGINE_LAYERS,
                         VALUE_PREDICTORS)

    units: Dict[str, str] = {
        "host.calib_ns": "ns",
        "lang.compile_ms": "ms",
        "interp.train_s": "s",
        "interp.eval_s": "s",
        "interp.ns_per_node": "ns",
        "interp.ns_per_node.norm": "ratio",
        "profiles.ms": "ms",
        "enlarge.ms": "ms",
        "harness.artifacts.save_ms": "ms",
        "harness.artifacts.load_ms": "ms",
        "harness.artifacts.mb": "MB",
        "machine.templates.ms": "ms",
        "sched.list_ms": "ms",
        "sched.schedules": "count",
    }
    for layer in ENGINE_LAYERS:
        units[f"{layer}.ns_per_node"] = "ns"
        units[f"{layer}.ns_per_node.norm"] = "ratio"
    units["machine.static_engine.points"] = "count"
    units["machine.dynamic.points"] = "count"
    units["machine.dynamic.executed_per_retired"] = "ratio"
    for letter in CACHED_MEMORIES:
        units[f"machine.cache.{letter}.accesses"] = "count"
        units[f"machine.cache.{letter}.ns_per_access"] = "ns"
        units[f"machine.cache.{letter}.miss_ratio"] = "ratio"
    for kind in BRANCH_PREDICTORS:
        units[f"machine.predictor.{kind}.branches"] = "count"
        units[f"machine.predictor.{kind}.ns_per_branch"] = "ns"
        units[f"machine.predictor.{kind}.accuracy"] = "ratio"
    for kind in VALUE_PREDICTORS:
        units[f"predict.{kind}.loads"] = "count"
        units[f"predict.{kind}.ns_per_load"] = "ns"
        units[f"predict.{kind}.confirm_ratio"] = "ratio"
    units.update({
        "harness.cache.put_ms": "ms",
        "harness.cache.get_us": "us",
        "harness.cache.kb": "KB",
        "harness.cache.hit_ratio": "ratio",
        "validate.check_us": "us",
        "validate.oracle_ms": "ms",
        "validate.errors": "count",
        "service.submit_ms": "ms",
        "service.wait_ms": "ms",
        "service.fetch_ms": "ms",
        "service.journal_bytes_per_job": "B",
        "harness.sweep.self_s": "s",
        "trace.traced_s": "s",
        "trace.untraced_s": "s",
    })
    return units


PER_LAYER = _per_layer()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linearly interpolated percentile inside the sample's range."""
    ordered: List[float] = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def blocks(values: Sequence[float], size: int) -> List[List[float]]:
    """Consecutive whole blocks of ``size`` (one block when fewer)."""
    out = [list(values[i:i + size])
           for i in range(0, len(values) - size + 1, size)]
    return out or [list(values)]
