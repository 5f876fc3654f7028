"""Per-result structural invariants: layer one of the validation oracle.

Every :class:`~repro.stats.results.SimResult` must satisfy a set of
relationships that hold by construction of the machine model -- counter
sanity (a cache cannot miss more often than it is accessed), utilisation
bounds (issue bandwidth and window occupancy cannot exceed what the
configuration provides), discard provenance (redundant work only exists
where a mispredict or an enlarged-block fault created it) and
architectural-work agreement with the functional interpreter trace.  A
violated invariant means the *simulator* is wrong, not the workload, so
every check emits an ``error``-severity finding.

These checks are deliberately independent of the engines' own
retired-node check (which raises :class:`EngineDivergence` inline): the
oracle re-derives each relationship from the recorded counters alone, so
it also catches results corrupted between simulation and reporting
(cache decode bugs, bad merges from parallel workers).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..machine.config import BranchMode, Discipline
from ..stats.results import SimResult
from .findings import SEVERITY_ERROR, ValidationFinding

#: Slack for floating-point derived ratios (utilisation, occupancy).
_RATIO_EPS = 1e-9

#: The closed vocabulary of invariant rule identifiers.
INVARIANT_RULES = (
    "invariant.counts",
    "invariant.cache",
    "invariant.issue",
    "invariant.window",
    "invariant.redundancy",
    "invariant.branch",
    "invariant.value",
    "invariant.work",
)


def _finding(result: SimResult, rule: str, message: str,
             measured: float, expected: float) -> ValidationFinding:
    return ValidationFinding(
        rule=rule,
        severity=SEVERITY_ERROR,
        benchmark=result.benchmark,
        config=str(result.config),
        message=message,
        measured=float(measured),
        expected=float(expected),
    )


def check_result(result: SimResult,
                 trace_retired: Optional[int] = None,
                 ) -> List[ValidationFinding]:
    """Every violated structural invariant of one simulation result.

    ``trace_retired``, when supplied, is the functional interpreter
    trace's retired-node count for the program this configuration ran
    (``workload.trace_for(config.branch_mode).retired_nodes``); the
    retired-work agreement check then compares against it exactly.
    Without it the check falls back to ``work_nodes`` (the single-block
    program's retired count), which pins single-block results only.
    """
    findings: List[ValidationFinding] = []
    config = result.config

    # ---- counter sanity ----------------------------------------------
    for name in ("cycles", "retired_nodes", "discarded_nodes",
                 "mispredicts", "branch_lookups", "faults",
                 "cache_accesses", "cache_misses", "issue_words",
                 "issued_slots", "window_samples"):
        value = getattr(result, name)
        if value < 0:
            findings.append(_finding(
                result, "invariant.counts",
                f"{name} is negative", value, 0,
            ))
    if result.executed_nodes < result.retired_nodes:
        findings.append(_finding(
            result, "invariant.counts",
            "executed_nodes fell below retired_nodes",
            result.executed_nodes, result.retired_nodes,
        ))

    # ---- memory hierarchy --------------------------------------------
    if result.cache_misses > result.cache_accesses:
        findings.append(_finding(
            result, "invariant.cache",
            "cache_misses exceeds cache_accesses",
            result.cache_misses, result.cache_accesses,
        ))
    if config.memory_config.is_perfect and result.cache_accesses:
        findings.append(_finding(
            result, "invariant.cache",
            f"perfect memory {config.memory} recorded cache accesses",
            result.cache_accesses, 0,
        ))

    # ---- issue bandwidth ---------------------------------------------
    utilization = result.issue_utilization
    if utilization > 1.0 + _RATIO_EPS:
        findings.append(_finding(
            result, "invariant.issue",
            "issue_utilization exceeds the configured bandwidth",
            utilization, 1.0,
        ))

    # ---- window occupancy --------------------------------------------
    if config.discipline is Discipline.DYNAMIC:
        occupancy = result.avg_window_blocks
        if occupancy > config.window_blocks + _RATIO_EPS:
            findings.append(_finding(
                result, "invariant.window",
                "mean window occupancy exceeds the configured window",
                occupancy, config.window_blocks,
            ))
    elif result.window_samples:
        findings.append(_finding(
            result, "invariant.window",
            "static machine recorded window occupancy samples",
            result.window_samples, 0,
        ))

    # ---- discard provenance ------------------------------------------
    # Redundant (discarded) work only exists where speculation went
    # wrong: a mispredicted branch, a signalling enlarged-block assert,
    # or a squashed value prediction replaying dependents.  In
    # particular a perfectly predicted single-block run without value
    # speculation must show zero redundancy.
    if result.discarded_nodes and not (
        result.mispredicts or result.faults or result.value_squashed
    ):
        findings.append(_finding(
            result, "invariant.redundancy",
            "discarded nodes without any mispredict or fault",
            result.discarded_nodes, 0,
        ))
    if config.branch_mode is BranchMode.SINGLE and result.faults:
        findings.append(_finding(
            result, "invariant.redundancy",
            "single-block program recorded enlarged-block faults",
            result.faults, 0,
        ))

    # ---- branch accounting -------------------------------------------
    if result.mispredicts > result.branch_lookups:
        findings.append(_finding(
            result, "invariant.branch",
            "mispredicts exceeds branch_lookups",
            result.mispredicts, result.branch_lookups,
        ))
    if config.branch_mode is BranchMode.PERFECT and result.mispredicts:
        findings.append(_finding(
            result, "invariant.branch",
            "perfect prediction recorded mispredicts",
            result.mispredicts, 0,
        ))

    # ---- value-speculation accounting --------------------------------
    # Every delivered prediction is settled exactly once by the verify
    # step, replays only exist downstream of a squash, the oracle never
    # squashes, and a machine without a value predictor records nothing.
    settled = result.value_confirmed + result.value_squashed
    if settled != result.value_predictions:
        findings.append(_finding(
            result, "invariant.value",
            "confirmed + squashed disagrees with delivered predictions",
            settled, result.value_predictions,
        ))
    if result.value_replays and not result.value_squashed:
        findings.append(_finding(
            result, "invariant.value",
            "dependent replays recorded without any squashed prediction",
            result.value_replays, 0,
        ))
    if config.value_predictor == "perfect" and result.value_squashed:
        findings.append(_finding(
            result, "invariant.value",
            "the perfect value oracle recorded squashes",
            result.value_squashed, 0,
        ))
    if config.value_predictor == "none" and (
        result.value_predictions or result.value_replays
    ):
        findings.append(_finding(
            result, "invariant.value",
            "value-speculation counters without a value predictor",
            result.value_predictions or result.value_replays, 0,
        ))

    # ---- retired-work agreement --------------------------------------
    if trace_retired is not None:
        if result.retired_nodes != trace_retired:
            findings.append(_finding(
                result, "invariant.work",
                "retired_nodes disagrees with the interpreter trace",
                result.retired_nodes, trace_retired,
            ))
    elif (
        config.branch_mode is BranchMode.SINGLE
        and result.work_nodes
        and result.retired_nodes != result.work_nodes
    ):
        # The single-block program retires exactly the architectural
        # work the functional run recorded.
        findings.append(_finding(
            result, "invariant.work",
            "single-block retired_nodes disagrees with work_nodes",
            result.retired_nodes, result.work_nodes,
        ))
    return findings


def check_results(results: Iterable[SimResult]) -> List[ValidationFinding]:
    """Invariant findings over a batch of results, in input order."""
    findings: List[ValidationFinding] = []
    for result in results:
        findings.extend(check_result(result))
    return findings
