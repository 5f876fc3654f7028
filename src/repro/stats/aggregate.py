"""Aggregation helpers: the ``telemetry.json`` document built from a
collector."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..telemetry.collector import Collector

#: Version tag of the ``telemetry.json`` document layout.
TELEMETRY_SCHEMA = "repro.telemetry/4"

#: Counter-name prefix under which the engines publish cycle
#: attribution (``cycles.<engine>.<bucket>``; see
#: ``repro.telemetry.collector.ATTRIBUTION_BUCKETS``).
_ATTRIBUTION_PREFIX = "cycles."


def histogram_stats(values: Sequence[float]) -> Dict[str, float]:
    """Summary statistics of one recorded distribution.

    ``total`` is the sum of the samples, so a phase histogram such as
    ``sweep.point.simulate_s`` also reads as that phase's total time.
    """
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    n = len(ordered)
    total = sum(ordered)
    return {
        "count": n,
        "total": total,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": total / n,
        "p50": ordered[n // 2],
        "p90": ordered[min(int(n * 0.9), n - 1)],
    }


def attribution_breakdown(counters: Dict[str, int],
                          ) -> Dict[str, Dict[str, Any]]:
    """Cycle attribution per engine from ``cycles.*`` counters.

    Returns ``{engine: {buckets: {bucket: cycles}, total_cycles,
    shares: {bucket: fraction}}}`` -- empty when no engine published
    attribution (collector disabled, or only cache hits served).
    """
    engines: Dict[str, Dict[str, int]] = {}
    for name, value in counters.items():
        if not name.startswith(_ATTRIBUTION_PREFIX):
            continue
        _, engine, bucket = name.split(".", 2)
        engines.setdefault(engine, {})[bucket] = value
    breakdown: Dict[str, Dict[str, Any]] = {}
    for engine, buckets in sorted(engines.items()):
        total = sum(buckets.values())
        breakdown[engine] = {
            "buckets": dict(sorted(buckets.items())),
            "total_cycles": total,
            "shares": {
                bucket: round(value / total, 4) if total else 0.0
                for bucket, value in sorted(buckets.items())
            },
        }
    return breakdown


def accuracy_summary(counters: Dict[str, int]) -> Dict[str, float]:
    """Prediction-accuracy ratios derived from the engines' counters.

    ``branch.accuracy`` is correct lookups over ``branch.lookups``;
    ``value.accuracy`` is ``value.confirmed`` over delivered
    ``value.predictions``.  Each key is present only when its
    denominator counter was published, so a grid without value
    speculation reports no ``value.accuracy`` rather than a fake 1.0.
    """
    accuracy: Dict[str, float] = {}
    lookups = counters.get("branch.lookups", 0)
    if lookups:
        accuracy["branch.accuracy"] = round(
            1.0 - counters.get("branch.mispredicts", 0) / lookups, 6
        )
    predictions = counters.get("value.predictions", 0)
    if predictions:
        accuracy["value.accuracy"] = round(
            counters.get("value.confirmed", 0) / predictions, 6
        )
    return accuracy


def schedule_summary(counters: Dict[str, int]) -> Dict[str, Any]:
    """Static schedule-quality facts from the ``sched.*`` counters.

    Published by :func:`repro.optsched.optimal_schedule_program` on
    runs with ``optimal_schedule=True``; empty when no block was solved
    exactly (list-only grids keep their telemetry byte-identical).
    ``gap_percent`` is the list-vs-optimal makespan reduction over every
    solved block; ``closed_fraction`` is how many blocks carry the
    ``makespan == lower_bound`` certificate.
    """
    blocks = counters.get("sched.blocks", 0)
    if not blocks:
        return {}
    list_words = counters.get("sched.list_words", 0)
    optimal_words = counters.get("sched.optimal_words", 0)
    summary: Dict[str, Any] = {
        "blocks": blocks,
        "closed": counters.get("sched.closed", 0),
        "fallback": counters.get("sched.fallback", 0),
        "memo_hits": counters.get("sched.memo_hits", 0),
        "list_words": list_words,
        "optimal_words": optimal_words,
        "lower_bound_words": counters.get("sched.lower_bound_words", 0),
        "closed_fraction": round(
            counters.get("sched.closed", 0) / blocks, 6
        ),
    }
    if list_words:
        summary["gap_percent"] = round(
            100.0 * (list_words - optimal_words) / list_words, 4
        )
    return summary


def telemetry_report(collector: Collector,
                     context: Optional[Dict[str, Any]] = None,
                     validation: Optional[Dict[str, Any]] = None,
                     failures: Optional[List[Dict[str, Any]]] = None,
                     ) -> Dict[str, Any]:
    """The machine-readable ``telemetry.json`` document for one sweep.

    Schema (``TELEMETRY_SCHEMA``): ``counters`` maps dotted counter
    names to totals (e.g. ``sweep.cache.hit``); ``histograms`` maps
    distribution names to :func:`histogram_stats` summaries (e.g.
    ``sweep.point.wall_s``; each carries its ``total``, so the phase
    histograms ``sweep.point.prepare_s`` / ``sweep.point.simulate_s``
    / ``sweep.point.merge_s`` / ``sweep.validate_s`` give a sweep's
    per-phase times).  The collector keeps totals, so no section lists
    points.  ``attribution`` is the per-engine cycle-attribution
    breakdown of :func:`attribution_breakdown` (empty unless fresh
    simulations ran with the collector enabled); ``accuracy`` is
    :func:`accuracy_summary` over the same counters
    (``branch.accuracy`` / ``value.accuracy``); ``schedule`` is
    :func:`schedule_summary` over the exact-scheduler's ``sched.*``
    counters (empty unless ``optimal_schedule`` points ran).
    ``context`` (when given) records run-level facts such as the
    execution backend and worker count; a parallel sweep's document is
    the parent-side merge of every worker's collector snapshot, so the
    schema is identical across backends.  ``failures`` (when given) is
    the sweep loop's tally of failed points, fresh or carried, as
    :meth:`repro.harness.errors.PointFailure.to_dict` records, so a
    partial grid is visible at the top level.  ``validation`` (when
    given) is a :meth:`repro.validate.ValidationReport.to_dict`
    document: the oracle's typed findings ride in the same file as the
    failure list.
    """
    document: Dict[str, Any] = {
        "schema": TELEMETRY_SCHEMA,
        "counters": dict(sorted(collector.counters.items())),
        "histograms": {
            name: histogram_stats(values)
            for name, values in sorted(collector.histograms.items())
        },
        "attribution": attribution_breakdown(collector.counters),
        "accuracy": accuracy_summary(collector.counters),
        "schedule": schedule_summary(collector.counters),
    }
    if context:
        document["context"] = dict(context)
    if failures is not None:
        document["failures"] = failures
    if validation is not None:
        document["validation"] = validation
    return document
