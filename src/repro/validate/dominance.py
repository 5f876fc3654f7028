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

from functools import lru_cache
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from ..machine.config import MEMORY_CONFIGS
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

#: How a rule reads a coordinate: ``(group, value)``, where ``group``
#: holds every coordinate the rule keeps fixed and ``value`` is the one
#: it orders, or None for a point the rule does not compare.
_Split = Callable[[_Coord], Optional[Tuple[Any, Any]]]


def _index(results: Iterable[SimResult]) -> Dict[_Coord, SimResult]:
    """Results keyed by grid coordinate (later duplicates win), sorted
    by coordinate so the order of findings does not depend on the order
    of ``results``."""
    indexed: Dict[_Coord, SimResult] = {}
    for result in results:
        config = result.config
        coord = (result.benchmark, config.discipline_key(),
                 config.issue_model, config.memory,
                 config.predictor, config.value_predictor,
                 config.optimal_schedule)
        indexed[coord] = result
    return {coord: indexed[coord] for coord in sorted(indexed)}


def _violation(rule: str, stronger: SimResult, weaker: SimResult,
               measured: float, expected: float, rel_tol: float,
               axis: str) -> ValidationFinding:
    return ValidationFinding(
        rule=rule,
        severity=SEVERITY_ERROR,
        benchmark=stronger.benchmark,
        config=str(stronger.config),
        reference=str(weaker.config),
        message=(
            f"the stronger {axis} lost: "
            f"{measured:.6f} < {expected:.6f} IPC"
            f" (rel_tol {rel_tol:g})"
        ),
        measured=measured,
        expected=expected,
    )


def _along(axis: int) -> _Split:
    """Group by every coordinate but ``axis``, and order along it."""
    return lambda coord: (coord[:axis] + coord[axis + 1:], coord[axis])


def _window_split(coord: _Coord) -> Optional[Tuple[Any, int]]:
    """Dynamic lines group by branch handling; the window is ordered."""
    benchmark, line, issue, memory, pred, vp, opt = coord
    base, _, mode = line.partition("/")
    if opt or not base.startswith("dyn"):
        return None
    return (benchmark, mode, issue, memory, pred, vp), int(base[3:])


#: The chained rules: (rule, axis named in the finding, split, chains).
#: ``chains`` lists the axis values weakest first, or is None to order
#: each group by sorting its values.
_CHAIN_RULES = (
    # dyn256 >= dyn4 >= dyn1 at equal branch handling (list schedules).
    ("dominance.window", "window", _window_split, None),
    # Wider issue models win.
    ("dominance.issue", "issue model", _along(2), None),
    # Faster perfect memories win: A >= B >= C.
    ("dominance.memory", "memory", _along(3),
     (tuple(reversed(_PERFECT_MEMORY_ORDER)),)),
    # Stronger value predictors never lose (list schedules).
    ("dominance.value", "value predictor",
     lambda coord: None if coord[6] else _along(5)(coord), _VALUE_CHAINS),
    # A certified-optimal schedule is never longer than the list
    # schedule on any block, so at equal configuration the optimal
    # machine's IPC must be at least the list machine's.
    ("dominance.sched", "static scheduler", _along(6), ((False, True),)),
)

#: Point sets whose comparison plans :func:`_plan` keeps: a daemon
#: answering a few recurring queries plans each set once.
PLAN_MEMO_SIZE = 8


def _chain_pairs(coords: Tuple[_Coord, ...], split: _Split,
                 chains: Optional[Tuple[Tuple[Any, ...], ...]],
                 ) -> Iterator[Tuple[int, int]]:
    """Adjacent present ``(stronger, weaker)`` indices along one rule.

    Points are grouped by ``split``; each group is walked along every
    chain, skipping absent values, so a partial grid (``--limit``,
    subsets) is compared as far as it goes.
    """
    groups: Dict[Any, Dict[Any, int]] = {}
    for position, coord in enumerate(coords):
        parts = split(coord)
        if parts is not None:
            groups.setdefault(parts[0], {})[parts[1]] = position
    for members in groups.values():
        if len(members) < 2:
            continue
        for chain in chains or (sorted(members),):
            present = [members[value] for value in chain
                       if value in members]
            for weaker, stronger in zip(present, present[1:]):
                yield stronger, weaker


@lru_cache(maxsize=PLAN_MEMO_SIZE)
def _plan(coords: Tuple[_Coord, ...]) -> Tuple[Tuple[str, str, int, int], ...]:
    """Every ``(rule, axis, stronger, weaker)`` comparison over the
    sorted ``coords`` (as indices into them), in the order of findings.

    Which pairs are compared depends only on which coordinates are
    present, never on the results, so the plan is kept per point set.
    """
    plan = [
        (rule, axis, stronger, weaker)
        for rule, axis, split, chains in _CHAIN_RULES
        for stronger, weaker in _chain_pairs(coords, split, chains)
    ]
    # ---- dominance.branch: perfect prediction >= realistic -----------
    # Perfect-mode points carry the default predictor kind (the axis is
    # inert under oracle prediction), so each realistic scheme compares
    # against its own-kind perfect point when present, else the default.
    position_of = {coord: position for position, coord in enumerate(coords)}
    for realistic, coord in enumerate(coords):
        benchmark, line, issue, memory, pred, vp, opt = coord
        if opt or line not in ("dyn4/enlarged", "dyn256/enlarged"):
            continue
        perfect_line = line.replace("enlarged", "perfect")
        perfect = position_of.get(
            (benchmark, perfect_line, issue, memory, pred, vp, False),
            position_of.get(
                (benchmark, perfect_line, issue, memory, "twobit", vp, False)))
        if perfect is not None:
            plan.append(("dominance.branch", "branch handling", perfect,
                         realistic))
    return tuple(plan)


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
    points = list(indexed.values())
    ipcs = [point.retired_per_cycle for point in points]
    # A stronger point at least as fast, within tolerance, holds.
    return [_violation(rule, points[stronger], points[weaker],
                       ipcs[stronger], ipcs[weaker], tol, axis)
            for rule, axis, stronger, weaker in _plan(tuple(indexed))
            if not ipcs[stronger] >= ipcs[weaker] * (1.0 - tol)]
