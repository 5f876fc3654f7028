"""Optimal static scheduling: exact block schedules + modulo pipelining.

The subsystem formulates per-block node scheduling as a constraint
problem (:mod:`.model`), solves it exactly with a budgeted, fully
deterministic branch-and-bound search (:mod:`.solver`), modulo-schedules
innermost single-block loops (:mod:`.modulo`), and memoizes solved
blocks content-addressed on disk (:mod:`.store`).

Entry points:

* :func:`optimal_schedule_program` -- drop-in replacement for
  :func:`repro.sched.schedule_program` used by the static engine when a
  machine configuration carries ``optimal_schedule=True``;
* :func:`analyze_program` -- the full per-block/per-loop study behind
  the ``schedule`` CLI verb and the EXPERIMENTS gap table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine.config import IssueModel, MemoryConfig
from ..program.program import Program
from ..sched.list_scheduler import ScheduledBlock
from ..telemetry.collector import Collector, NULL_COLLECTOR
from .model import ScheduleProblem, block_signature, slot_class
from .modulo import (
    DEFAULT_LOOP_BUDGET,
    LoopPipeline,
    carried_edges,
    is_innermost_loop,
    pipeline_loop,
    pipeline_program,
)
from .solver import (
    DEFAULT_BLOCK_BUDGET,
    BlockSolution,
    solve_block,
)
from .store import SCHEDULE_STORE_VERSION, ScheduleStore, schedule_key

__all__ = [
    "BlockSolution",
    "DEFAULT_BLOCK_BUDGET",
    "DEFAULT_LOOP_BUDGET",
    "LoopPipeline",
    "ProgramAnalysis",
    "SCHEDULE_STORE_VERSION",
    "ScheduleProblem",
    "ScheduleStore",
    "analyze_program",
    "block_signature",
    "carried_edges",
    "is_innermost_loop",
    "optimal_schedule_program",
    "pipeline_loop",
    "pipeline_program",
    "schedule_key",
    "slot_class",
    "solve_block",
]


def _count_block(collector: Collector, list_makespan: int, makespan: int,
                 lower_bound: int, closed: bool, memo_hit: bool) -> None:
    """Fold one solved block into the ``sched.*`` telemetry counters."""
    collector.count("sched.blocks")
    collector.count("sched.list_words", list_makespan)
    collector.count("sched.optimal_words", makespan)
    collector.count("sched.lower_bound_words", lower_bound)
    collector.count("sched.gap_cycles", list_makespan - makespan)
    if closed:
        collector.count("sched.closed")
    else:
        collector.count("sched.fallback")
    if memo_hit:
        collector.count("sched.memo_hits")


def optimal_schedule_program(
    program: Program,
    issue: IssueModel,
    memory: MemoryConfig,
    collector: Collector = NULL_COLLECTOR,
    store: Optional[ScheduleStore] = None,
    budget_steps: int = DEFAULT_BLOCK_BUDGET,
) -> Dict[str, ScheduledBlock]:
    """Exactly schedule every block of a program (memoized, certified).

    Returns the same shape as :func:`repro.sched.schedule_program`, so
    the static engine consumes the result unchanged.  Solved blocks are
    memoized through ``store`` (pass None to use the default artifact
    root); telemetry lands under the ``sched.*`` counter prefix.
    """
    if store is None:
        store = ScheduleStore()
    schedules: Dict[str, ScheduledBlock] = {}
    for block in program:
        nodes = list(block.nodes())
        key = schedule_key(nodes, issue, memory)
        entry = store.load(key)
        if entry is not None:
            mem_rank = {
                index: rank for rank, index in enumerate(
                    i for i, node in enumerate(nodes) if node.is_memory
                )
            }
            schedules[block.label] = ScheduledBlock(
                block.label,
                [list(word) for word in entry["words"]],
                mem_rank,
                len(nodes),
            )
            _count_block(
                collector, entry["list_makespan"], entry["makespan"],
                entry["lower_bound"], bool(entry["closed"]), memo_hit=True,
            )
            continue
        solution = solve_block(block, issue, memory, budget_steps=budget_steps)
        store.save(
            key,
            solution.schedule.words,
            solution.list_makespan,
            solution.makespan,
            solution.lower_bound,
            solution.closed,
            solution.steps,
        )
        schedules[block.label] = solution.schedule
        _count_block(
            collector, solution.list_makespan, solution.makespan,
            solution.lower_bound, solution.closed, memo_hit=False,
        )
    return schedules


@dataclass
class ProgramAnalysis:
    """The full schedule-quality study of one program on one machine."""

    #: per-block exact solutions, in program block order.
    blocks: List[BlockSolution]
    #: per-innermost-loop modulo-scheduling verdicts.
    loops: List[LoopPipeline]

    @property
    def list_words(self) -> int:
        return sum(b.list_makespan for b in self.blocks)

    @property
    def optimal_words(self) -> int:
        return sum(b.makespan for b in self.blocks)

    @property
    def lower_bound_words(self) -> int:
        return sum(b.lower_bound for b in self.blocks)

    @property
    def closed_blocks(self) -> int:
        return sum(1 for b in self.blocks if b.closed)

    @property
    def gap_percent(self) -> float:
        """Static list-vs-optimal makespan gap over the whole program."""
        if self.list_words == 0:
            return 0.0
        return 100.0 * (self.list_words - self.optimal_words) / self.list_words


def analyze_program(program: Program, issue: IssueModel,
                    memory: MemoryConfig) -> ProgramAnalysis:
    """Solve every block exactly and modulo-schedule every innermost loop."""
    blocks = [solve_block(block, issue, memory) for block in program]
    loops = pipeline_program(program, issue, memory)
    return ProgramAnalysis(blocks=blocks, loops=loops)
