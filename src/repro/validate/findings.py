"""Typed validation findings: what the oracle reports instead of raising.

A :class:`ValidationFinding` records one violated relationship -- a
structural invariant on a single result, a dominance ordering between
two configuration points, or a drift from a golden baseline -- with a
stable ``rule`` identifier and a severity.  Findings are plain data so
they serialise into ``telemetry.json`` and flow through the same
reporting machinery as :class:`repro.harness.errors.PointFailure`
records; the oracle never aborts a sweep.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Tuple

#: Severity levels, in gating order.  ``error`` findings gate exit codes
#: (``repro-sim sweep`` exits 4); ``warning`` findings are reported but
#: never gate; ``info`` is purely advisory.
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"
SEVERITY_INFO = "info"

SEVERITIES = (SEVERITY_ERROR, SEVERITY_WARNING, SEVERITY_INFO)

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass
class ValidationFinding:
    """One violated validation rule, recorded instead of raised.

    ``config`` names the offending point; for pairwise rules
    (dominance, baseline drift) ``reference`` names the point or
    baseline entry it was compared against.  ``measured`` and
    ``expected`` carry the two sides of the violated relation in the
    rule's metric.
    """

    rule: str
    severity: str
    benchmark: str
    config: str
    message: str
    reference: str = ""
    measured: float = 0.0
    expected: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (``telemetry.json``'s ``validation`` section)."""
        return asdict(self)

    def sort_key(self) -> Tuple[int, str, str, str, str]:
        """Deterministic ordering: severity, then rule, then the points.

        Parallel sweeps merge outcomes in completion order, so findings
        are sorted before reporting -- a serial and a ``--jobs N`` run of
        the same grid must produce byte-identical finding lists.
        """
        return (
            _SEVERITY_RANK.get(self.severity, len(SEVERITIES)),
            self.rule,
            self.benchmark,
            self.config,
            self.reference,
        )

    def summary(self) -> str:
        """One-line human-readable description."""
        line = (
            f"[{self.severity}] {self.rule}: {self.benchmark} {self.config}"
        )
        if self.reference:
            line += f" vs {self.reference}"
        return f"{line} -- {self.message}"


def sort_findings(findings: Iterable[ValidationFinding]
                  ) -> List[ValidationFinding]:
    """Findings in the deterministic reporting order."""
    return sorted(findings, key=ValidationFinding.sort_key)


def count_by_severity(findings: Iterable[ValidationFinding]
                      ) -> Dict[str, int]:
    """``{severity: count}`` over the known severity levels."""
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return counts


def has_errors(findings: Iterable[ValidationFinding]) -> bool:
    """Whether any finding is gating (``error`` severity)."""
    return any(f.severity == SEVERITY_ERROR for f in findings)
