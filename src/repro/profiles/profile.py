"""Execution profiles: block counts, branch arcs and direction statistics.

The paper's enlargement tool consumes "branch arc densities from the first
simulated run"; this module derives exactly that from a functional trace
(the training-input run), plus the static branch hints that supplement the
2-bit dynamic predictor.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..interp.trace import NOT_TAKEN, TAKEN, Trace
from ..isa import node as nd
from ..isa.ops import NodeKind
from ..program.block import BasicBlock
from ..program.program import Program


class BranchProfile:
    """Aggregated execution statistics for one program run."""

    def __init__(self) -> None:
        #: label -> dynamic execution count
        self.block_counts: Dict[str, int] = {}
        #: (from_label, to_label) -> traversal count (all control arcs)
        self.arc_counts: Dict[Tuple[str, str], int] = {}
        #: label -> [not_taken_count, taken_count] for conditional branches
        self.branch_outcomes: Dict[str, list] = {}

    # ------------------------------------------------------------------
    def taken_fraction(self, label: str) -> float:
        """Fraction of executions in which the branch at ``label`` took."""
        counts = self.branch_outcomes.get(label)
        if not counts or sum(counts) == 0:
            return 0.5
        return counts[TAKEN] / (counts[NOT_TAKEN] + counts[TAKEN])

    def majority_taken(self, label: str) -> bool:
        """Static prediction for the branch at ``label``."""
        return self.taken_fraction(label) >= 0.5


def build_profile(trace: Trace) -> BranchProfile:
    """Aggregate a functional trace into a :class:`BranchProfile`."""
    profile = BranchProfile()
    block_counts = profile.block_counts
    arc_counts = profile.arc_counts
    outcomes = profile.branch_outcomes
    labels = trace.labels

    previous = None
    for position, block_id in enumerate(trace.block_ids):
        label = labels[block_id]
        block_counts[label] = block_counts.get(label, 0) + 1
        if previous is not None:
            arc = (previous, label)
            arc_counts[arc] = arc_counts.get(arc, 0) + 1
        outcome = trace.outcomes[position]
        if outcome in (TAKEN, NOT_TAKEN):
            entry = outcomes.get(label)
            if entry is None:
                entry = [0, 0]
                outcomes[label] = entry
            entry[outcome] += 1
        previous = label
    return profile


def annotate_static_hints(program: Program, profile: BranchProfile) -> Program:
    """Set ``expect_taken`` on conditional branches from profile majority.

    The run-time simulator uses these hints the first time a branch is
    encountered (before its 2-bit counter warms up), matching the paper's
    static-supplemented dynamic prediction.
    """
    replacements: Dict[str, BasicBlock] = {}
    for block in program:
        term = block.terminator
        if term.kind is not NodeKind.BRANCH:
            continue
        if block.label not in profile.branch_outcomes:
            continue
        hint = profile.majority_taken(block.label)
        if term.expect_taken == hint:
            continue
        new_term = nd.branch(term.src1.index, term.target, term.alt_target, hint)
        replacements[block.label] = block.with_body(list(block.body), new_term)
    if not replacements:
        return program
    return program.replace_blocks(replacements)
