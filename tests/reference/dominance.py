"""Cross-configuration dominance: layer two of the validation oracle.

The paper's argument is built from ordered comparisons across its
configuration grid: a strictly more capable machine must never lose.
Four partial orders are machine-checked over a sweep's result set, each
comparing ``retired_per_cycle`` (the paper's figure of merit) between
two points that differ in exactly one axis:

* ``dominance.window``  -- dynamic window 256 >= 4 >= 1 (same branch
  handling, issue model and memory);
* ``dominance.issue``   -- wider issue models >= narrower ones (the
  paper's models 1..8 are component-wise nested, as are the extension
  models 9 and 10);
* ``dominance.memory``  -- faster perfect memories win: A >= B >= C
  (1-, 2- and 3-cycle constant latency);
* ``dominance.branch``  -- perfect prediction >= realistic prediction
  on the same enlarged program (dyn4/dyn256), whichever realistic
  predictor scheme (2-bit, gshare, perceptron) produced the point;
* ``dominance.value``   -- more capable value predictors never lose at
  equal geometry: the oracle dominates everything, ``stride`` and
  ``context`` each dominate ``last``, and any predictor beats no
  speculation.  ``stride`` and ``context`` are deliberately *not*
  ordered against each other: arithmetic sequences favour the stride
  table, repeating non-arithmetic patterns favour the FCM, and measured
  grids show each winning on different workloads;
* ``dominance.sched``   -- the exact static scheduler never loses to
  the greedy list scheduler at equal configuration: the optimal
  schedule is seeded with the list schedule as its upper bound, so a
  loss would indicate a solver or engine bug, not a modelling choice.

A violation emits one ``error`` finding naming both points; nothing is
raised, so findings flow into ``telemetry.json`` and the sweep's exit
code machinery.  ``rel_tol`` forgives losses smaller than the given
relative fraction -- the simulator is deterministic, so the default
tolerance is small, but second-order effects (a bigger window issuing
more wrong-path work into finite bandwidth) legitimately produce
sub-percent inversions on tiny inputs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..machine.config import BranchMode, MEMORY_CONFIGS
from ..stats.results import SimResult
from .findings import SEVERITY_ERROR, ValidationFinding

#: Default relative tolerance for ordered-pair comparisons.
DEFAULT_REL_TOL = 0.02

#: The closed vocabulary of dominance rule identifiers.
DOMINANCE_RULES = (
    "dominance.window",
    "dominance.issue",
    "dominance.memory",
    "dominance.branch",
    "dominance.value",
    "dominance.sched",
)

#: The value-predictor partial order as weakest-first chains sharing
#: endpoints: ``stride`` and ``context`` are incomparable, so each gets
#: its own chain from ``none`` up to the ``perfect`` oracle.
_VALUE_CHAINS = (
    ("none", "last", "stride", "perfect"),
    ("none", "last", "context", "perfect"),
)

#: Perfect-memory chain, fastest first (Figure 4's left-hand group).
_PERFECT_MEMORY_ORDER = tuple(
    letter for letter, memory in sorted(
        MEMORY_CONFIGS.items(), key=lambda item: item[1].hit_cycles
    )
    if memory.is_perfect
)

#: One point's coordinates: (benchmark, line, issue index, memory
#: letter, branch-predictor kind, value-predictor kind, optimal-schedule
#: flag) where ``line`` is ``config.discipline_key()``.  The predictor
#: and scheduler axes keep spec-/sched-grid points (gshare/perceptron
#: variants, value-speculation sweeps, exact-schedule runs) from
#: colliding with -- and silently replacing -- paper-grid points in the
#: index.
_Coord = Tuple[str, str, int, str, str, str, bool]


def _index(results: Iterable[SimResult]) -> Dict[_Coord, SimResult]:
    """Results keyed by grid coordinate (later duplicates win)."""
    indexed: Dict[_Coord, SimResult] = {}
    for result in results:
        config = result.config
        coord = (result.benchmark, config.discipline_key(),
                 config.issue_model, config.memory,
                 config.predictor, config.value_predictor,
                 config.optimal_schedule)
        indexed[coord] = result
    return indexed


def _violation(rule: str, stronger: SimResult, weaker: SimResult,
               rel_tol: float, axis: str) -> ValidationFinding:
    return ValidationFinding(
        rule=rule,
        severity=SEVERITY_ERROR,
        benchmark=stronger.benchmark,
        config=str(stronger.config),
        reference=str(weaker.config),
        message=(
            f"the stronger {axis} lost: "
            f"{stronger.retired_per_cycle:.6f} < "
            f"{weaker.retired_per_cycle:.6f} IPC"
            f" (rel_tol {rel_tol:g})"
        ),
        measured=stronger.retired_per_cycle,
        expected=weaker.retired_per_cycle,
    )


def _dominates(stronger: SimResult, weaker: SimResult,
               rel_tol: float) -> bool:
    """Whether ``stronger`` is at least as fast, within tolerance."""
    return (
        stronger.retired_per_cycle
        >= weaker.retired_per_cycle * (1.0 - rel_tol)
    )


def _chain_pairs(indexed: Dict[_Coord, SimResult],
                 coords: List[_Coord]) -> Iterable[Tuple[SimResult, SimResult]]:
    """Consecutive present pairs along one ordered coordinate chain.

    ``coords`` is ordered weakest first; each yielded pair is
    ``(stronger, weaker)`` for adjacent points that both exist, so a
    partial grid (``--limit``, subsets) is compared as far as it goes.
    """
    present = [indexed[coord] for coord in coords if coord in indexed]
    for weaker, stronger in zip(present, present[1:]):
        yield stronger, weaker


def check_dominance(results: Iterable[SimResult],
                    rel_tol: Optional[float] = None,
                    ) -> List[ValidationFinding]:
    """Every violated partial order over one sweep's result set.

    Only pairs present in ``results`` are compared, so partial grids
    validate as far as their coverage allows; order of ``results`` does
    not affect the findings (they are emitted in a deterministic
    coordinate order).
    """
    tol = DEFAULT_REL_TOL if rel_tol is None else rel_tol
    indexed = _index(results)
    findings: List[ValidationFinding] = []

    benchmarks = sorted({coord[0] for coord in indexed})
    lines = sorted({coord[1] for coord in indexed})
    issues = sorted({coord[2] for coord in indexed})
    memories = sorted({coord[3] for coord in indexed})
    predictors = sorted({coord[4] for coord in indexed})
    value_predictors = sorted({coord[5] for coord in indexed})
    scheds = sorted({coord[6] for coord in indexed})

    # ---- dominance.window: dyn256 >= dyn4 >= dyn1 --------------------
    for benchmark in benchmarks:
        for mode in BranchMode:
            windows = sorted(
                int(line[3:].split("/")[0])
                for line in lines
                if line.startswith("dyn") and line.endswith(f"/{mode.value}")
            )
            for issue in issues:
                for memory in memories:
                    for pred in predictors:
                        for vp in value_predictors:
                            chain = [
                                (benchmark, f"dyn{window}/{mode.value}",
                                 issue, memory, pred, vp, False)
                                for window in windows
                            ]
                            for stronger, weaker in _chain_pairs(
                                indexed, chain
                            ):
                                if not _dominates(stronger, weaker, tol):
                                    findings.append(_violation(
                                        "dominance.window", stronger,
                                        weaker, tol, "window",
                                    ))

    # ---- dominance.issue: wider models win ---------------------------
    for benchmark in benchmarks:
        for line in lines:
            for memory in memories:
                for pred in predictors:
                    for vp in value_predictors:
                        for opt in scheds:
                            chain = [
                                (benchmark, line, issue, memory, pred, vp,
                                 opt)
                                for issue in issues
                            ]
                            for stronger, weaker in _chain_pairs(
                                indexed, chain
                            ):
                                if not _dominates(stronger, weaker, tol):
                                    findings.append(_violation(
                                        "dominance.issue", stronger,
                                        weaker, tol, "issue model",
                                    ))

    # ---- dominance.memory: perfect A >= B >= C -----------------------
    for benchmark in benchmarks:
        for line in lines:
            for issue in issues:
                for pred in predictors:
                    for vp in value_predictors:
                        for opt in scheds:
                            chain = [
                                (benchmark, line, issue, memory, pred, vp,
                                 opt)
                                for memory in reversed(_PERFECT_MEMORY_ORDER)
                            ]
                            for stronger, weaker in _chain_pairs(
                                indexed, chain
                            ):
                                if not _dominates(stronger, weaker, tol):
                                    findings.append(_violation(
                                        "dominance.memory", stronger,
                                        weaker, tol, "memory",
                                    ))

    # ---- dominance.branch: perfect prediction >= realistic -----------
    # Perfect-mode points carry the default predictor kind (the axis is
    # inert under oracle prediction), so each realistic scheme compares
    # against its own-kind perfect point when present, else the default.
    for benchmark in benchmarks:
        for window in (4, 256):
            for issue in issues:
                for memory in memories:
                    for pred in predictors:
                        for vp in value_predictors:
                            perfect = indexed.get((
                                benchmark, f"dyn{window}/perfect", issue,
                                memory, pred, vp, False,
                            )) or indexed.get((
                                benchmark, f"dyn{window}/perfect", issue,
                                memory, "twobit", vp, False,
                            ))
                            realistic = indexed.get((
                                benchmark, f"dyn{window}/enlarged", issue,
                                memory, pred, vp, False,
                            ))
                            if perfect is None or realistic is None:
                                continue
                            if not _dominates(perfect, realistic, tol):
                                findings.append(_violation(
                                    "dominance.branch", perfect,
                                    realistic, tol, "branch handling",
                                ))

    # ---- dominance.value: stronger value predictors never lose -------
    for benchmark in benchmarks:
        for line in lines:
            for issue in issues:
                for memory in memories:
                    for pred in predictors:
                        for kinds in _VALUE_CHAINS:
                            chain = [
                                (benchmark, line, issue, memory, pred, vp,
                                 False)
                                for vp in kinds
                            ]
                            for stronger, weaker in _chain_pairs(
                                indexed, chain
                            ):
                                if not _dominates(stronger, weaker, tol):
                                    findings.append(_violation(
                                        "dominance.value", stronger,
                                        weaker, tol, "value predictor",
                                    ))

    # ---- dominance.sched: exact schedules never lose to greedy -------
    # A certified-optimal schedule is never longer than the list
    # schedule on any block, so at equal configuration the optimal
    # machine's IPC must be at least the list machine's.
    for benchmark in benchmarks:
        for line in lines:
            for issue in issues:
                for memory in memories:
                    for pred in predictors:
                        for vp in value_predictors:
                            chain = [
                                (benchmark, line, issue, memory, pred, vp,
                                 opt)
                                for opt in (False, True)
                            ]
                            for stronger, weaker in _chain_pairs(
                                indexed, chain
                            ):
                                if not _dominates(stronger, weaker, tol):
                                    findings.append(_violation(
                                        "dominance.sched", stronger,
                                        weaker, tol, "static scheduler",
                                    ))
    return findings
