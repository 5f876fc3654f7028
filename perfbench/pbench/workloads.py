"""The three workloads, as sweeps of grids over programs, in seeded order.

The programs' inputs are their fixed train/eval sets, so every point's
counters can be recorded once and checked on every run; the seed picks
the order in which programs are swept and submitted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


#: One sweep of one grid over some programs: one ``repro-sim sweep``
#: process for a cold workload, one job spec for the service.
Job = Tuple[str, Tuple[str, ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``cold``: timed ``repro-sim sweep`` processes on empty caches;
    #: ``service``: a closed loop of jobs against ``repro-sim serve``.
    kind: str
    #: in nominal order; grids run in this order.
    jobs: Tuple[Job, ...]
    why: str

    @property
    def programs(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for _, programs in self.jobs:
            for program in programs:
                seen.setdefault(program)
        return tuple(seen)

    def ordered_jobs(self, seed: int) -> List[Job]:
        """The jobs with their programs shuffled, and jobs of the same
        grid shuffled among themselves; grids keep their order."""
        rng = random.Random(seed)
        rank = {}
        for grid, _ in self.jobs:
            rank.setdefault(grid, len(rank))
        out = [(grid, tuple(rng.sample(programs, len(programs))))
               for grid, programs in self.jobs]
        rng.shuffle(out)
        return sorted(out, key=lambda job: rank[job[0]])


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-cold", "cold",
            (("smoke", ("crc32", "hashjoin", "jsontok")),
             ("cache", ("crc32", "hashjoin", "jsontok"))),
            "cold sweeps of the smoke and cache grids on crc32, hashjoin and"
            " jsontok: all ten discipline/branch lines, both engines, the"
            " D/H/E/I cache ladder, result-cache writes",
        ),
        Workload(
            "spec-cold", "cold",
            (("spec", ("hashjoin",)), ("spec", ("jsontok",))),
            "cold sweeps of the spec grid on hashjoin and jsontok:"
            " value-predicted operands with squash and replay, gshare and"
            " perceptron, in the dynamic engine only",
        ),
        Workload(
            "service-warm", "service",
            (("smoke", ("hashjoin", "jsontok")),),
            "a closed loop of warm 80-point jobs against repro-sim serve:"
            " cache reads, the per-job oracle, the journal and HTTP; the"
            " engines stay idle",
        ),
    )
}

#: Every (grid, program) any workload sweeps: what ``--record`` covers.
ALL_JOBS = tuple(sorted({(grid, program) for w in WORKLOADS.values()
                         for grid, programs in w.jobs for program in programs}))
