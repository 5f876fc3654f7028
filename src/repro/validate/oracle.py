"""Oracle orchestration: run every validation layer over one result set.

:func:`run_oracle` composes the three layers -- per-result invariants,
cross-configuration dominance, and (when a baseline path is given)
golden-baseline drift -- into one :class:`ValidationReport` that is
deterministic for a given result set regardless of the order results
arrived in, so serial and ``--jobs N`` sweeps of the same grid report
byte-identical findings.  Callers run it once over a finished result
set: ``repro-sim sweep`` over its sweep loop's tally, ``serve
--validate`` over each job's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ..stats.results import SimResult
from .baseline import check_baseline
from .dominance import DEFAULT_REL_TOL, check_dominance
from .findings import (
    ValidationFinding,
    count_by_severity,
    has_errors,
    sort_findings,
)
from .invariants import check_results

#: Version tag of the ``validation`` section in ``telemetry.json``.
VALIDATION_SCHEMA = "repro.validation/1"


@dataclass
class ValidationReport:
    """Everything one oracle run found, plus how much it looked at."""

    findings: List[ValidationFinding] = field(default_factory=list)
    checked_results: int = 0
    rel_tol: float = DEFAULT_REL_TOL
    baseline_path: Optional[str] = None

    @property
    def errors(self) -> int:
        return count_by_severity(self.findings)["error"]

    @property
    def warnings(self) -> int:
        return count_by_severity(self.findings)["warning"]

    @property
    def ok(self) -> bool:
        """Whether nothing gating was found (warnings do not gate)."""
        return not has_errors(self.findings)

    def to_dict(self) -> Dict[str, Any]:
        """The ``validation`` section of ``telemetry.json``."""
        document: Dict[str, Any] = {
            "schema": VALIDATION_SCHEMA,
            "checked_results": self.checked_results,
            "rel_tol": self.rel_tol,
            "severities": count_by_severity(self.findings),
            "findings": [finding.to_dict() for finding in self.findings],
        }
        if self.baseline_path is not None:
            document["baseline"] = self.baseline_path
        return document

    def summary_lines(self) -> List[str]:
        """Human-readable report: one header plus one line per finding."""
        status = "clean" if self.ok else f"{self.errors} error(s)"
        lines = [
            f"validation: {self.checked_results} result(s) checked,"
            f" {status}, {self.warnings} warning(s)"
        ]
        lines.extend(finding.summary() for finding in self.findings)
        return lines


def run_oracle(results: Iterable[SimResult],
               rel_tol: Optional[float] = None,
               baseline_path: Optional[str] = None,
               scale: int = 1) -> ValidationReport:
    """Run every applicable validation layer over one result set.

    ``baseline_path`` of None skips the baseline layer entirely.
    """
    results = list(results)
    tol = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    findings = check_results(results)
    findings.extend(check_dominance(results, rel_tol=tol))
    if baseline_path is not None:
        findings.extend(check_baseline(results, scale, baseline_path))
    return ValidationReport(
        findings=sort_findings(findings),
        checked_results=len(results),
        rel_tol=tol,
        baseline_path=baseline_path,
    )
