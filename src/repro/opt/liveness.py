"""Global register liveness over a whole program.

Liveness is computed once over the full CFG (including call and fault
edges) with conservative boundary conditions at returns, and is consumed
by dead-node elimination and by enlargement re-optimisation.

Boundary conditions encode the code generator's conventions:

* a RET block's live-out is {rv, sp, gp} plus the callee-saved local
  registers (their values belong to the caller);
* CALL terminators use the argument registers conservatively (arity is
  not tracked at this level);
* an EXIT syscall ends the program, so nothing is live after it;
* a signalling assert restores the block-entry registers before it
  leaves, so its fault target's live-in is live into the whole block.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..isa.ops import NodeKind
from ..isa.registers import ARG_REGS, GP, LOCAL_FIRST, LOCAL_LAST, RV, SP
from ..program.block import BasicBlock
from ..program.program import Program

#: Registers assumed live when a function returns.
RETURN_LIVE: FrozenSet[int] = frozenset(
    {RV, SP, GP} | set(range(LOCAL_FIRST, LOCAL_LAST + 1))
)


def node_uses(node) -> tuple:
    """Registers a node reads, including conservative CALL uses."""
    if node.kind is NodeKind.CALL:
        return tuple(ARG_REGS) + (SP, GP)
    return node.source_regs()


def block_use_def(block: BasicBlock):
    """Compute (use, def) register sets for one block.

    ``use`` holds registers read before any write in the block; ``def``
    holds registers written anywhere in the block.
    """
    uses: Set[int] = set()
    defs: Set[int] = set()
    for node in block.nodes():
        for reg in node_uses(node):
            if reg not in defs:
                uses.add(reg)
        dest = node.dest_reg()
        if dest is not None:
            defs.add(dest)
    return uses, defs


class LivenessInfo:
    """Computed live-in/live-out register sets per block label."""

    def __init__(self, live_in: Dict[str, Set[int]], live_out: Dict[str, Set[int]]):
        self.live_in = live_in
        self.live_out = live_out


def compute_liveness(program: Program) -> LivenessInfo:
    """Iterative backward dataflow to a fixpoint."""
    use: Dict[str, Set[int]] = {}
    define: Dict[str, Set[int]] = {}
    succs: Dict[str, tuple] = {}
    faults: Dict[str, tuple] = {}
    boundary: Dict[str, Set[int]] = {}

    for block in program:
        use[block.label], define[block.label] = block_use_def(block)
        succs[block.label] = block.successor_labels()
        faults[block.label] = tuple(node.target for node in block.body
                                    if node.kind is NodeKind.ASSERT)
        term = block.terminator
        if term.kind is NodeKind.RET:
            boundary[block.label] = set(RETURN_LIVE)
        else:
            boundary[block.label] = set()

    live_in: Dict[str, Set[int]] = {label: set() for label in use}
    live_out: Dict[str, Set[int]] = {label: set() for label in use}

    changed = True
    while changed:
        changed = False
        for label in use:
            out = set(boundary[label])
            for succ in succs[label]:
                out |= live_in[succ]
            new_in = use[label] | (out - define[label])
            for target in faults[label]:
                new_in |= live_in[target]
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return LivenessInfo(live_in, live_out)
