"""Validation oracle: invariants, dominance orders, golden baselines.

Three layers of machine-checked correctness over simulation results
(see DESIGN.md "Validation & regression gating"):

* :mod:`~repro.validate.invariants` -- structural checks every
  :class:`~repro.stats.results.SimResult` must satisfy;
* :mod:`~repro.validate.dominance` -- the paper's partial orders
  (bigger windows, wider issue, faster memories, better branch
  handling must never lose) over a sweep's result set;
* :mod:`~repro.validate.baseline` -- versioned golden baselines with
  per-metric drift tolerances, recorded by ``repro-sim sweep --record``
  and gated by ``sweep --check``.

All layers emit typed :class:`ValidationFinding` records instead of
raising, so findings flow into ``telemetry.json`` and the sweep's
exit-code machinery alongside ``PointFailure`` records.
"""

from .baseline import (
    BASELINE_SCHEMA,
    DEFAULT_TOLERANCES,
    check_baseline,
    default_baseline_path,
    load_baseline,
    record_baseline,
)
from .dominance import DEFAULT_REL_TOL, DOMINANCE_RULES, check_dominance
from .findings import (
    SEVERITIES,
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    ValidationFinding,
    count_by_severity,
    has_errors,
    sort_findings,
)
from .invariants import INVARIANT_RULES, check_result, check_results
from .oracle import VALIDATION_SCHEMA, ValidationReport, run_oracle

__all__ = [
    "BASELINE_SCHEMA",
    "DEFAULT_REL_TOL",
    "DEFAULT_TOLERANCES",
    "DOMINANCE_RULES",
    "INVARIANT_RULES",
    "SEVERITIES",
    "SEVERITY_ERROR",
    "SEVERITY_INFO",
    "SEVERITY_WARNING",
    "VALIDATION_SCHEMA",
    "ValidationFinding",
    "ValidationReport",
    "check_baseline",
    "check_dominance",
    "check_result",
    "check_results",
    "count_by_severity",
    "default_baseline_path",
    "has_errors",
    "load_baseline",
    "record_baseline",
    "run_oracle",
    "sort_findings",
]
