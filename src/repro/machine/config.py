"""Machine configuration space: the paper's four parameter axes.

The simulation study varies scheduling discipline, issue model, memory
configuration and branch handling; with the 100% prediction runs limited
to dynamic windows of 4 and 256 this yields the paper's 560 data points
per benchmark (10 discipline/branch lines x 8 issue models x 7 memory
configurations).  That grid and its smaller siblings are declared once,
in :data:`GRIDS`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterator, Optional, Tuple


class Discipline(enum.Enum):
    """Scheduling discipline."""

    STATIC = "static"
    DYNAMIC = "dynamic"


class BranchMode(enum.Enum):
    """Branch-handling axis.

    ``PERFECT`` uses the enlarged program (the paper fed the enlargement
    file to both the enlarged and the perfect-prediction studies) with a
    trace-driven oracle for every branch-trap prediction.
    """

    SINGLE = "single"
    ENLARGED = "enlarged"
    PERFECT = "perfect"


@dataclass(frozen=True)
class IssueModel:
    """How many nodes of each class issue per cycle.

    ``sequential`` marks the paper's issue model 1, which issues a single
    node of any class per cycle.
    """

    index: int
    mem_slots: int
    alu_slots: int
    sequential: bool = False

    @property
    def total_slots(self) -> int:
        return 1 if self.sequential else self.mem_slots + self.alu_slots

    def __str__(self) -> str:
        if self.sequential:
            return "seq"
        return f"{self.mem_slots}M+{self.alu_slots}A"


#: The paper's eight issue models, keyed by their index, plus two wider
#: extension models (9, 10) for the "wider multinodewords put more
#: pressure on both the hardware and the compiler" future-work study;
#: the extensions are excluded from the paper's 560-point space.
ISSUE_MODELS: Dict[int, IssueModel] = {
    1: IssueModel(1, 1, 1, sequential=True),
    2: IssueModel(2, 1, 1),
    3: IssueModel(3, 1, 2),
    4: IssueModel(4, 1, 3),
    5: IssueModel(5, 2, 4),
    6: IssueModel(6, 2, 6),
    7: IssueModel(7, 4, 8),
    8: IssueModel(8, 4, 12),
    9: IssueModel(9, 8, 24),
    10: IssueModel(10, 16, 48),
}

#: Issue-model indices used by the paper's study.
PAPER_ISSUE_MODELS = tuple(range(1, 9))


@dataclass(frozen=True)
class MemoryConfig:
    """Memory-hierarchy parameters.

    ``cache_bytes`` of None means a perfect memory with constant
    ``hit_cycles`` latency.  All caches are 2-way set associative with
    16-byte blocks, and every miss costs ``miss_cycles``; the memory
    system is fully pipelined.
    """

    letter: str
    hit_cycles: int
    miss_cycles: int
    cache_bytes: Optional[int]

    @property
    def is_perfect(self) -> bool:
        return self.cache_bytes is None

    def __str__(self) -> str:
        if self.is_perfect:
            return f"{self.letter}({self.hit_cycles}cyc)"
        return (
            f"{self.letter}({self.hit_cycles}/{self.miss_cycles}cyc,"
            f"{self.cache_bytes // 1024}K)"
        )


#: The paper's seven memory configurations (A-G), plus two cache-geometry
#: extension points (H, I) that fill out the 1-cycle-hit capacity ladder
#: 1K (D) / 4K (H) / 16K (E) / 64K (I) for the per-workload cache sweeps.
#: The extensions are excluded from the paper's 560-point space.
MEMORY_CONFIGS: Dict[str, MemoryConfig] = {
    "A": MemoryConfig("A", 1, 1, None),
    "B": MemoryConfig("B", 2, 2, None),
    "C": MemoryConfig("C", 3, 3, None),
    "D": MemoryConfig("D", 1, 10, 1024),
    "E": MemoryConfig("E", 1, 10, 16 * 1024),
    "F": MemoryConfig("F", 2, 10, 1024),
    "G": MemoryConfig("G", 2, 10, 16 * 1024),
    "H": MemoryConfig("H", 1, 10, 4 * 1024),
    "I": MemoryConfig("I", 1, 10, 64 * 1024),
}

#: Memory letters used by the paper's study.
PAPER_MEMORIES = ("A", "B", "C", "D", "E", "F", "G")

#: Horizontal-axis order used by the paper's Figure 4 (1-cycle memories
#: with decreasing locality, then 2-cycle, then 3-cycle).
FIGURE4_MEMORY_ORDER = ("A", "E", "D", "B", "G", "F", "C")

#: Figure 5's fourteen (issue model, memory) pairs slicing diagonally
#: through the 8x7 matrix, arranged so that the paper's '5B' -> '5D' dip
#: is visible (constant 2-cycle memory followed by a small cache).
FIGURE5_COMPOSITES: Tuple[Tuple[int, str], ...] = (
    (1, "A"), (2, "A"), (3, "A"), (3, "E"), (4, "E"), (4, "B"), (5, "B"),
    (5, "D"), (6, "D"), (6, "G"), (7, "G"), (7, "F"), (8, "F"), (8, "C"),
)

#: Dynamic window sizes studied (in active basic blocks).
WINDOW_SIZES = (1, 4, 256)

CACHE_BLOCK_BYTES = 16
CACHE_WAYS = 2


@dataclass(frozen=True)
class MachineConfig:
    """One point in the simulated configuration space."""

    discipline: Discipline
    issue_model: int
    memory: str
    branch_mode: BranchMode
    window_blocks: int = 1
    static_hints: bool = True
    #: ablation axis beyond the paper: see repro.machine.predictor
    predictor: str = "twobit"
    #: data-speculation axis beyond the paper: see repro.predict
    value_predictor: str = "none"
    #: static-scheduling axis beyond the paper: replace the greedy list
    #: scheduler with the exact solver (see repro.optsched)
    optimal_schedule: bool = False

    def __post_init__(self) -> None:
        from ..predict import VALUE_PREDICTOR_KINDS
        from .predictor import PREDICTOR_KINDS

        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {self.predictor!r}")
        if self.value_predictor not in VALUE_PREDICTOR_KINDS:
            raise ValueError(
                f"unknown value predictor kind {self.value_predictor!r}"
            )
        if self.issue_model not in ISSUE_MODELS:
            raise ValueError(f"unknown issue model {self.issue_model}")
        if self.memory not in MEMORY_CONFIGS:
            raise ValueError(f"unknown memory configuration {self.memory!r}")
        if self.discipline is Discipline.DYNAMIC:
            if self.window_blocks < 1:
                raise ValueError("window must be at least one block")
        elif self.value_predictor != "none":
            # Like perfect branch prediction, speculative operand
            # delivery is a dynamic-machine study: the static engine has
            # no out-of-order wakeup for a predicted value to accelerate.
            raise ValueError(
                "value prediction is studied on dynamic machines"
            )
        if (
            self.branch_mode is BranchMode.PERFECT
            and self.discipline is not Discipline.DYNAMIC
        ):
            raise ValueError("perfect prediction is studied on dynamic machines")
        if self.optimal_schedule and self.discipline is not Discipline.STATIC:
            # Dynamic machines build their own issue order in hardware;
            # there is no compile-time word packing to optimise.
            raise ValueError(
                "optimal scheduling is studied on static machines"
            )

    @property
    def issue(self) -> IssueModel:
        return ISSUE_MODELS[self.issue_model]

    @property
    def memory_config(self) -> MemoryConfig:
        return MEMORY_CONFIGS[self.memory]

    def discipline_key(self) -> str:
        """Short name of the scheduling-discipline line this point is on.

        These are the line labels of the paper's Figures 3, 4 and 6, e.g.
        ``static/single`` or ``dyn4/enlarged`` or ``dyn256/perfect``.
        """
        if self.discipline is Discipline.STATIC:
            base = "static"
        else:
            base = f"dyn{self.window_blocks}"
        return f"{base}/{self.branch_mode.value}"

    def __str__(self) -> str:
        base = f"{self.discipline_key()}/{self.issue}/{self.memory}"
        # Non-default speculation axes are spelled out so spec-grid
        # findings and summaries stay distinguishable; paper-grid points
        # keep their historical names.
        if self.predictor != "twobit":
            base += f"/p:{self.predictor}"
        if self.value_predictor != "none":
            base += f"/v:{self.value_predictor}"
        if self.optimal_schedule:
            base += "/opt"
        return base


#: One discipline/branch-handling line: (discipline, window, branch mode).
Line = Tuple[Discipline, int, BranchMode]


def scheduling_disciplines() -> Tuple[Line, ...]:
    """The paper's ten discipline/branch-handling lines."""
    lines = []
    for mode in (BranchMode.SINGLE, BranchMode.ENLARGED):
        lines.append((Discipline.STATIC, 1, mode))
        for window in WINDOW_SIZES:
            lines.append((Discipline.DYNAMIC, window, mode))
    for window in (4, 256):
        lines.append((Discipline.DYNAMIC, window, BranchMode.PERFECT))
    return tuple(lines)


#: Issue models kept by the validation smoke grid: the narrowest
#: non-sequential model and the paper's widest.
SMOKE_ISSUE_MODELS = (2, 8)

#: Memory configurations kept by the smoke grid: the fastest and
#: slowest perfect memories (the ends of the A >= B >= C chain).
SMOKE_MEMORIES = ("A", "C")

#: Default cache-capacity ladder for the per-workload geometry sweeps:
#: every 1-cycle-hit cached memory, smallest first.
CACHE_SWEEP_MEMORIES = ("D", "H", "E", "I")

#: Issue models kept by the cache-geometry grid: the narrowest
#: non-sequential model and a mid-width one, so cache effects are read
#: at two different compute pressures.
CACHE_SWEEP_ISSUE_MODELS = (2, 6)

#: Discipline/branch lines kept by the cache-geometry grid.
CACHE_SWEEP_LINES = (
    (Discipline.STATIC, 1, BranchMode.ENLARGED),
    (Discipline.DYNAMIC, 4, BranchMode.ENLARGED),
    (Discipline.DYNAMIC, 256, BranchMode.ENLARGED),
)

#: Discipline/branch lines kept by the speculation grid: the small and
#: large enlarged windows (where data speculation competes with branch
#: recovery) plus the large perfect-branch window (where the "value
#: speculation never hurts under perfect branches" order is read).
SPEC_SWEEP_LINES = (
    (Discipline.DYNAMIC, 4, BranchMode.ENLARGED),
    (Discipline.DYNAMIC, 256, BranchMode.ENLARGED),
    (Discipline.DYNAMIC, 256, BranchMode.PERFECT),
)

#: Issue models kept by the speculation grid (narrow and wide, matching
#: the smoke grid so cross-grid comparisons line up).
SPEC_ISSUE_MODELS = (2, 8)

#: Memory configurations kept by the speculation grid: the 1-cycle
#: perfect memory (value prediction can only hide operand waits) and
#: the 3-cycle one (the latency actually worth hiding).
SPEC_MEMORIES = ("A", "C")

#: The full value-predictor chain, weakest first (``dominance.value``).
SPEC_VALUE_PREDICTORS = ("none", "last", "stride", "context", "perfect")

#: Branch predictors promoted into the supported family between
#: "realistic" (the paper's 2-bit BTB) and "perfect": the spec grid
#: carries each at value_predictor=none on the large enlarged window.
SPEC_BRANCH_PREDICTORS = ("gshare", "perceptron")

#: Static lines kept by the scheduling grid (the only lines with
#: compile-time word packing to optimise).
SCHED_SWEEP_LINES = (
    (Discipline.STATIC, 1, BranchMode.SINGLE),
    (Discipline.STATIC, 1, BranchMode.ENLARGED),
)

#: Issue models kept by the scheduling grid: narrow (where slot
#: pressure dominates), the paper's mid-width, and the widest (where
#: the critical path dominates and greedy choices matter most).
SCHED_ISSUE_MODELS = (2, 5, 8)

#: Memory configurations kept by the scheduling grid: perfect memories
#: only, so IPC differences come purely from word packing -- a cached
#: memory would let schedule-induced access reordering perturb cache
#: state and blur the list-vs-optimal comparison.
SCHED_MEMORIES = ("A", "C")

#: Memory-axis marker for the cache grid: the workload's own
#: ``cache_memories`` ladder, or :data:`CACHE_SWEEP_MEMORIES` when it
#: sets none (or no workload is named).
WORKLOAD_LADDER = None

#: One axis product: ``(field, values)`` pairs crossed in order, first
#: axis outermost.  ``line`` sets the discipline, window and branch mode
#: together; every other field is a :class:`MachineConfig` field.
Axes = Tuple[Tuple[str, Optional[Tuple[Any, ...]]], ...]

#: The configuration grids: each an ordered list of axis products.
#: Every grid verb, the report, the service's job specs and the
#: fault-injection drill read their points from this one table.
GRIDS: Dict[str, Tuple[Axes, ...]] = {
    # The paper's 560 points per program.
    "full": (
        (("line", scheduling_disciplines()),
         ("issue_model", PAPER_ISSUE_MODELS),
         ("memory", PAPER_MEMORIES)),
    ),
    # 40 points that still exercise every ordering: all ten lines (so
    # the window, branch-handling and discipline comparisons all have
    # their points) crossed with two issue models and two perfect
    # memories -- small enough for CI, rich enough that every dominance
    # rule in repro.validate.dominance has pairs to compare.
    "smoke": (
        (("line", scheduling_disciplines()),
         ("issue_model", SMOKE_ISSUE_MODELS),
         ("memory", SMOKE_MEMORIES)),
    ),
    # The capacity ladder x width x discipline, at most 24 points per
    # program.
    "cache": (
        (("line", CACHE_SWEEP_LINES),
         ("issue_model", CACHE_SWEEP_ISSUE_MODELS),
         ("memory", WORKLOAD_LADDER)),
    ),
    # 68 points: the value-predictor chain on every speculation line
    # (60), plus the promoted branch predictors on the large enlarged
    # window at value_predictor=none (8).
    "spec": (
        (("line", SPEC_SWEEP_LINES),
         ("issue_model", SPEC_ISSUE_MODELS),
         ("memory", SPEC_MEMORIES),
         ("value_predictor", SPEC_VALUE_PREDICTORS)),
        (("predictor", SPEC_BRANCH_PREDICTORS),
         ("line", ((Discipline.DYNAMIC, 256, BranchMode.ENLARGED),)),
         ("issue_model", SPEC_ISSUE_MODELS),
         ("memory", SPEC_MEMORIES)),
    ),
    # 24 points: list vs exact schedules on static machines; every
    # on/off pair feeds the dominance.sched rule.
    "sched": (
        (("line", SCHED_SWEEP_LINES),
         ("issue_model", SCHED_ISSUE_MODELS),
         ("memory", SCHED_MEMORIES),
         ("optimal_schedule", (False, True))),
    ),
    # The 159 points EXPERIMENTS.md reads: Figures 3 and 6, Figure 4,
    # Figure 5's composites (one product per pair), value speculation
    # and the list-vs-optimal pair; a shared point is yielded once.
    "report": (
        (("line", scheduling_disciplines()),
         ("issue_model", PAPER_ISSUE_MODELS),
         ("memory", ("A",))),
        (("line", scheduling_disciplines()),
         ("issue_model", (8,)),
         ("memory", FIGURE4_MEMORY_ORDER)),
        *((("line", ((Discipline.DYNAMIC, 4, BranchMode.ENLARGED),)),
           ("issue_model", (issue_model,)),
           ("memory", (memory,)))
          for issue_model, memory in FIGURE5_COMPOSITES),
        (("line", ((Discipline.DYNAMIC, 256, BranchMode.ENLARGED),)),
         ("issue_model", SPEC_ISSUE_MODELS),
         ("memory", ("C",)),
         ("value_predictor", SPEC_VALUE_PREDICTORS)),
        (("line", ((Discipline.STATIC, 1, BranchMode.ENLARGED),)),
         ("issue_model", (5,)),
         ("memory", ("A",)),
         ("optimal_schedule", (False, True))),
    ),
}


def _cache_ladder(benchmark: Optional[str]) -> Tuple[str, ...]:
    if benchmark is not None:
        # Imported lazily: the workload registry imports this module.
        from ..workloads import WORKLOADS

        workload = WORKLOADS.get(benchmark)
        if workload is not None and workload.cache_memories:
            return workload.cache_memories
    return CACHE_SWEEP_MEMORIES


def grid_configs(grid: str,
                 benchmark: Optional[str] = None) -> Iterator[MachineConfig]:
    """The configurations of one :data:`GRIDS` grid, in table order,
    each once (where it is first seen).

    ``benchmark`` only matters to grids with a workload-chosen memory
    ladder (``cache``); the other grids yield the same points for every
    workload.
    """
    seen = set()
    for axes in GRIDS[grid]:
        names = [name for name, _ in axes]
        values = [_cache_ladder(benchmark) if axis is WORKLOAD_LADDER
                  else axis for _, axis in axes]
        for combo in itertools.product(*values):
            fields = dict(zip(names, combo))
            discipline, window, mode = fields.pop("line")
            config = MachineConfig(discipline=discipline, window_blocks=window,
                                   branch_mode=mode, **fields)
            if config not in seen:
                seen.add(config)
                yield config


#: The per-grid spellings, each :func:`grid_configs` bound to one grid
#: (``cache_configuration_space(name)`` takes the workload's ladder).
full_configuration_space = partial(grid_configs, "full")
smoke_configuration_space = partial(grid_configs, "smoke")
cache_configuration_space = partial(grid_configs, "cache")
spec_configuration_space = partial(grid_configs, "spec")
sched_configuration_space = partial(grid_configs, "sched")
