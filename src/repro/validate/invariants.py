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
    # Each counter is read once.
    names = ("cycles", "retired_nodes", "discarded_nodes", "mispredicts",
             "branch_lookups", "faults", "cache_accesses", "cache_misses",
             "issue_words", "issued_slots", "window_samples")
    counts = (result.cycles, result.retired_nodes, result.discarded_nodes,
              result.mispredicts, result.branch_lookups, result.faults,
              result.cache_accesses, result.cache_misses,
              result.issue_words, result.issued_slots, result.window_samples)
    (_, retired, discarded, mispredicts, lookups, faults, accesses, misses,
     words, slots, samples) = counts
    predictions, squashed, replays, work = (
        result.value_predictions, result.value_squashed,
        result.value_replays, result.work_nodes)

    # ---- counter sanity ----------------------------------------------
    if min(counts) < 0:
        for name, value in zip(names, counts):
            if value < 0:
                findings.append(_finding(
                    result, "invariant.counts",
                    f"{name} is negative", value, 0,
                ))
    executed = retired + discarded
    if executed < retired:
        findings.append(_finding(
            result, "invariant.counts",
            "executed_nodes fell below retired_nodes",
            executed, retired,
        ))

    # ---- memory hierarchy --------------------------------------------
    if misses > accesses:
        findings.append(_finding(
            result, "invariant.cache",
            "cache_misses exceeds cache_accesses",
            misses, accesses,
        ))
    if accesses and config.memory_config.is_perfect:
        findings.append(_finding(
            result, "invariant.cache",
            f"perfect memory {config.memory} recorded cache accesses",
            accesses, 0,
        ))

    # ---- issue bandwidth ---------------------------------------------
    utilization = slots / (words * config.issue.total_slots) if words else 0.0
    if utilization > 1.0 + _RATIO_EPS:
        findings.append(_finding(
            result, "invariant.issue",
            "issue_utilization exceeds the configured bandwidth",
            utilization, 1.0,
        ))

    # ---- window occupancy --------------------------------------------
    if config.discipline is Discipline.DYNAMIC:
        occupancy = result.window_block_cycles / samples if samples else 0.0
        if occupancy > config.window_blocks + _RATIO_EPS:
            findings.append(_finding(
                result, "invariant.window",
                "mean window occupancy exceeds the configured window",
                occupancy, config.window_blocks,
            ))
    elif samples:
        findings.append(_finding(
            result, "invariant.window",
            "static machine recorded window occupancy samples",
            samples, 0,
        ))

    # ---- discard provenance ------------------------------------------
    # Redundant (discarded) work only exists where speculation went
    # wrong: a mispredicted branch, a signalling enlarged-block assert,
    # or a squashed value prediction replaying dependents.  In
    # particular a perfectly predicted single-block run without value
    # speculation must show zero redundancy.
    if discarded and not (mispredicts or faults or squashed):
        findings.append(_finding(
            result, "invariant.redundancy",
            "discarded nodes without any mispredict or fault",
            discarded, 0,
        ))
    if faults and config.branch_mode is BranchMode.SINGLE:
        findings.append(_finding(
            result, "invariant.redundancy",
            "single-block program recorded enlarged-block faults",
            faults, 0,
        ))

    # ---- branch accounting -------------------------------------------
    if mispredicts > lookups:
        findings.append(_finding(
            result, "invariant.branch",
            "mispredicts exceeds branch_lookups",
            mispredicts, lookups,
        ))
    if mispredicts and config.branch_mode is BranchMode.PERFECT:
        findings.append(_finding(
            result, "invariant.branch",
            "perfect prediction recorded mispredicts",
            mispredicts, 0,
        ))

    # ---- value-speculation accounting --------------------------------
    # Every delivered prediction is settled exactly once by the verify
    # step, replays only exist downstream of a squash, the oracle never
    # squashes, and a machine without a value predictor records nothing.
    settled = result.value_confirmed + squashed
    if settled != predictions:
        findings.append(_finding(
            result, "invariant.value",
            "confirmed + squashed disagrees with delivered predictions",
            settled, predictions,
        ))
    if replays and not squashed:
        findings.append(_finding(
            result, "invariant.value",
            "dependent replays recorded without any squashed prediction",
            replays, 0,
        ))
    if squashed and config.value_predictor == "perfect":
        findings.append(_finding(
            result, "invariant.value",
            "the perfect value oracle recorded squashes",
            squashed, 0,
        ))
    if (predictions or replays) and config.value_predictor == "none":
        findings.append(_finding(
            result, "invariant.value",
            "value-speculation counters without a value predictor",
            predictions or replays, 0,
        ))

    # ---- retired-work agreement --------------------------------------
    if trace_retired is not None:
        if retired != trace_retired:
            findings.append(_finding(
                result, "invariant.work",
                "retired_nodes disagrees with the interpreter trace",
                retired, trace_retired,
            ))
    elif (
        config.branch_mode is BranchMode.SINGLE
        and work
        and retired != work
    ):
        # The single-block program retires exactly the architectural
        # work the functional run recorded.
        findings.append(_finding(
            result, "invariant.work",
            "single-block retired_nodes disagrees with work_nodes",
            retired, work,
        ))
    return findings


def check_results(results: Iterable[SimResult]) -> List[ValidationFinding]:
    """Invariant findings over a batch of results, in input order."""
    findings: List[ValidationFinding] = []
    for result in results:
        findings.extend(check_result(result))
    return findings
