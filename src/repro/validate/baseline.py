"""Golden-baseline regression gating: layer three of the validation oracle.

``repro-sim sweep --record`` snapshots the key metrics of every point
in a grid into a versioned ``baselines/*.json`` document; ``sweep
--check`` replays the same grid and compares against the snapshot with
per-metric drift tolerances, so CI can gate regressions in
``retired_per_cycle``, ``redundancy``, ``mispredicts`` and ``cycles``
across PRs without re-deriving the paper's figures.

Versioning rule: a baseline records the simulator's ``CACHE_VERSION``
at record time, and its per-point keys are the result-cache keys (which
embed that version).  A simulator-behaviour bump therefore makes every
stored key unmatchable *and* trips an explicit ``baseline.version``
finding telling the operator to re-record -- stale baselines fail loudly
instead of silently comparing nothing.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..stats.results import SimResult
from .findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    ValidationFinding,
)

#: Version tag of the baseline document layout.
BASELINE_SCHEMA = "repro.baseline/1"

#: Default directory for committed baselines, relative to the repo root.
BASELINE_DIR = "baselines"

#: Metric -> drift tolerance.  Floats compare relatively (fraction of
#: the recorded value, falling back to absolute drift when the recorded
#: value is zero); integer-exact metrics use tolerance 0.
DEFAULT_TOLERANCES: Dict[str, float] = {
    "retired_per_cycle": 0.01,
    "redundancy": 0.01,
    "mispredicts": 0.0,
    "cycles": 0.01,
}


def default_baseline_path(benchmarks: Sequence[str],
                          grid: str = "full") -> str:
    """The conventional on-disk location for one grid's baseline."""
    return os.path.join(
        BASELINE_DIR, f"{grid}-{'-'.join(benchmarks)}.json"
    )


def _point_metrics(result: SimResult) -> Dict[str, float]:
    return {
        "retired_per_cycle": result.retired_per_cycle,
        "redundancy": result.redundancy,
        "mispredicts": result.mispredicts,
        "cycles": result.cycles,
    }


def _point_key(result: SimResult, scale: int) -> str:
    # Lazy import: harness.cache sits above the validate layer in some
    # import chains (harness/__init__ -> runner -> validate), so binding
    # it at call time keeps package initialisation order-independent.
    from ..harness.cache import result_key

    return result_key(result.benchmark, result.config, scale)


def record_baseline(results: Iterable[SimResult], scale: int,
                    path: str) -> Dict[str, Any]:
    """Write one grid's golden baseline document and return it.

    The document is rendered with sorted keys and an indent so committed
    baselines diff cleanly under review.
    """
    from ..harness.cache import CACHE_VERSION, atomic_write_json

    results = list(results)
    points = {
        _point_key(result, scale): _point_metrics(result)
        for result in results
    }
    document = {
        "schema": BASELINE_SCHEMA,
        "cache_version": CACHE_VERSION,
        "scale": scale,
        "benchmarks": sorted({result.benchmark for result in results}),
        "points": dict(sorted(points.items())),
    }
    atomic_write_json(path, document, indent=2)
    return document


def load_baseline(path: str) -> Optional[Dict[str, Any]]:
    """Read a baseline document; None when missing or unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(raw, dict) or raw.get("schema") != BASELINE_SCHEMA:
        return None
    return raw


def _drift_finding(result: SimResult, metric: str, measured: float,
                   recorded: float, tolerance: float) -> ValidationFinding:
    return ValidationFinding(
        rule="baseline.drift",
        severity=SEVERITY_ERROR,
        benchmark=result.benchmark,
        config=str(result.config),
        reference=metric,
        message=(
            f"{metric} drifted from the golden baseline:"
            f" {measured:.6g} vs recorded {recorded:.6g}"
            f" (tolerance {tolerance:g})"
        ),
        measured=float(measured),
        expected=float(recorded),
    )


def check_baseline(results: Iterable[SimResult], scale: int, path: str,
                   tolerances: Optional[Dict[str, float]] = None,
                   ) -> List[ValidationFinding]:
    """Compare a grid's results against a recorded golden baseline.

    Error findings gate: a missing or unreadable baseline, a
    ``CACHE_VERSION`` or scale mismatch (stale baseline -- re-record),
    and any per-metric drift beyond tolerance.  Coverage asymmetries are
    warnings: points missing from the baseline (new grid cells) and
    baseline entries the current run did not cover (partial grids).
    """
    from ..harness.cache import CACHE_VERSION

    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)
    results = list(results)
    findings: List[ValidationFinding] = []

    document = load_baseline(path)
    if document is None:
        findings.append(ValidationFinding(
            rule="baseline.missing",
            severity=SEVERITY_ERROR,
            benchmark="",
            config=path,
            message=(
                "no readable golden baseline at this path;"
                " run `repro-sim sweep --record` to create one"
            ),
        ))
        return findings
    if document.get("cache_version") != CACHE_VERSION:
        findings.append(ValidationFinding(
            rule="baseline.version",
            severity=SEVERITY_ERROR,
            benchmark="",
            config=path,
            message=(
                f"baseline was recorded at CACHE_VERSION"
                f" {document.get('cache_version')} but the simulator is at"
                f" {CACHE_VERSION}; re-record the baseline"
            ),
            measured=float(document.get("cache_version") or 0),
            expected=float(CACHE_VERSION),
        ))
        return findings
    if document.get("scale") != scale:
        findings.append(ValidationFinding(
            rule="baseline.scale",
            severity=SEVERITY_ERROR,
            benchmark="",
            config=path,
            message=(
                f"baseline was recorded at scale {document.get('scale')}"
                f" but this run used scale {scale}; re-record or rerun"
            ),
            measured=float(scale),
            expected=float(document.get("scale") or 0),
        ))
        return findings

    recorded_points: Dict[str, Dict[str, float]] = document.get("points", {})
    covered = set()
    for result in results:
        key = _point_key(result, scale)
        covered.add(key)
        recorded = recorded_points.get(key)
        if recorded is None:
            findings.append(ValidationFinding(
                rule="baseline.unrecorded",
                severity=SEVERITY_WARNING,
                benchmark=result.benchmark,
                config=str(result.config),
                message="point not present in the golden baseline",
            ))
            continue
        measured = _point_metrics(result)
        for metric, tolerance in sorted(tols.items()):
            if metric not in recorded:
                continue
            drift = abs(measured[metric] - recorded[metric])
            allowed = (
                abs(recorded[metric]) * tolerance
                if recorded[metric] else tolerance
            )
            if drift > allowed:
                findings.append(_drift_finding(
                    result, metric, measured[metric], recorded[metric],
                    tolerance,
                ))
    for key in sorted(set(recorded_points) - covered):
        findings.append(ValidationFinding(
            rule="baseline.uncovered",
            severity=SEVERITY_WARNING,
            benchmark="",
            config=key,
            message="baseline point not covered by this run",
        ))
    return findings
