"""Per-figure data generators for the paper's evaluation section.

Every figure in the paper's section 3 has a function here that produces
its data series (and an ASCII rendering).  ``repro-sim figure N`` prints
one figure's table; ``repro-sim report`` assembles them all into
EXPERIMENTS.md and judges them against its claims table
(``repro.harness.report.CLAIMS``).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ..interp.trace import Trace
from ..machine.config import (
    BranchMode,
    Discipline,
    FIGURE4_MEMORY_ORDER,
    MachineConfig,
    scheduling_disciplines,
)
from .runner import SweepRunner

#: Line labels in the order the paper's legend lists its ten schemes.
def discipline_lines() -> List[Tuple[str, Discipline, int, BranchMode]]:
    """(label, discipline, window, branch-mode) for the ten lines."""
    lines = []
    for discipline, window, mode in scheduling_disciplines():
        if discipline is Discipline.STATIC:
            label = f"static/{mode.value}"
        else:
            label = f"dyn{window}/{mode.value}"
        lines.append((label, discipline, window, mode))
    return lines


def _config(discipline: Discipline, window: int, mode: BranchMode,
            issue_model: int, memory: str) -> MachineConfig:
    return MachineConfig(
        discipline=discipline,
        issue_model=issue_model,
        memory=memory,
        branch_mode=mode,
        window_blocks=window,
    )


# ----------------------------------------------------------------------
# Figure 2: basic block size histograms (single vs enlarged)
# ----------------------------------------------------------------------
#: Histogram bucket upper bounds (inclusive); the last bucket is open.
FIGURE2_BUCKETS = (4, 9, 14, 19, 24, 29, 39, 49)


def _bucket_label(index: int) -> str:
    lower = 0 if index == 0 else FIGURE2_BUCKETS[index - 1] + 1
    if index == len(FIGURE2_BUCKETS):
        return f"{lower}+"
    return f"{lower}-{FIGURE2_BUCKETS[index]}"


def dynamic_block_histogram(trace: Trace, templates) -> Counter:
    """Execution-weighted histogram of dynamic block sizes (in nodes)."""
    sizes = [templates[label].n_datapath for label in trace.labels]
    histogram: Counter = Counter()
    for block_id in trace.block_ids:
        histogram[sizes[block_id]] += 1
    return histogram


def _bucketize(histogram: Counter) -> List[float]:
    total = sum(histogram.values())
    buckets = [0] * (len(FIGURE2_BUCKETS) + 1)
    for size, count in histogram.items():
        for index, bound in enumerate(FIGURE2_BUCKETS):
            if size <= bound:
                buckets[index] += count
                break
        else:
            buckets[-1] += count
    if total == 0:
        return [0.0] * len(buckets)
    return [count / total for count in buckets]


def figure2_data(runner: SweepRunner) -> Dict[str, List[float]]:
    """Fraction of executed blocks per size bucket, single vs enlarged.

    Averaged over all benchmarks, like the paper's Figure 2.
    """
    single: Counter = Counter()
    enlarged: Counter = Counter()
    for name in runner.benchmarks:
        workload = runner.workload(name)
        single += dynamic_block_histogram(
            workload.single_trace, workload.templates_single
        )
        enlarged += dynamic_block_histogram(
            workload.enlarged_trace, workload.templates_enlarged
        )
    return {
        "buckets": [_bucket_label(i) for i in range(len(FIGURE2_BUCKETS) + 1)],
        "single": _bucketize(single),
        "enlarged": _bucketize(enlarged),
    }


# ----------------------------------------------------------------------
# Figure 3: retired nodes/cycle vs issue model (memory A)
# ----------------------------------------------------------------------
def figure3_data(runner: SweepRunner,
                 issue_models: Sequence[int] = tuple(range(1, 9)),
                 ) -> Dict[str, List[float]]:
    """Geometric-mean IPC per discipline line over the issue models."""
    data: Dict[str, List[float]] = {}
    for label, discipline, window, mode in discipline_lines():
        data[label] = [
            runner.mean_ipc(_config(discipline, window, mode, model, "A"))
            for model in issue_models
        ]
    data["_issue_models"] = list(issue_models)
    return data


# ----------------------------------------------------------------------
# Figure 4: retired nodes/cycle vs memory configuration (issue model 8)
# ----------------------------------------------------------------------
def figure4_data(runner: SweepRunner,
                 memories: Sequence[str] = FIGURE4_MEMORY_ORDER,
                 issue_model: int = 8) -> Dict[str, List[float]]:
    """Geometric-mean IPC per discipline line over memory configs."""
    data: Dict[str, List[float]] = {}
    for label, discipline, window, mode in discipline_lines():
        data[label] = [
            runner.mean_ipc(_config(discipline, window, mode, issue_model, memory))
            for memory in memories
        ]
    data["_memories"] = list(memories)
    return data


# ----------------------------------------------------------------------
# Figure 5: per-benchmark variation over composite configurations
# ----------------------------------------------------------------------
#: Fourteen (issue model, memory) pairs slicing diagonally through the
#: 8x7 matrix, arranged so that the paper's '5B' -> '5D' locality dip is
#: visible (constant 2-cycle memory followed by a small cache).
FIGURE5_COMPOSITES: Tuple[Tuple[int, str], ...] = (
    (1, "A"), (2, "A"), (3, "A"), (3, "E"), (4, "E"), (4, "B"), (5, "B"),
    (5, "D"), (6, "D"), (6, "G"), (7, "G"), (7, "F"), (8, "F"), (8, "C"),
)


def figure5_data(runner: SweepRunner,
                 composites: Sequence[Tuple[int, str]] = FIGURE5_COMPOSITES,
                 ) -> Dict[str, List[float]]:
    """Per-benchmark IPC on dyn-window-4/enlarged over composite configs."""
    data: Dict[str, List[float]] = {}
    for name in runner.benchmarks:
        series = []
        for issue_model, memory in composites:
            config = _config(
                Discipline.DYNAMIC, 4, BranchMode.ENLARGED, issue_model, memory
            )
            series.append(runner.run_point(name, config).retired_per_cycle)
        data[name] = series
    data["_composites"] = [f"{model}{memory}" for model, memory in composites]
    return data


# ----------------------------------------------------------------------
# Figure 6: operation redundancy vs issue model
# ----------------------------------------------------------------------
def figure6_data(runner: SweepRunner,
                 issue_models: Sequence[int] = tuple(range(1, 9)),
                 ) -> Dict[str, List[float]]:
    """Mean redundancy (discarded/executed) per discipline line."""
    data: Dict[str, List[float]] = {}
    for label, discipline, window, mode in discipline_lines():
        data[label] = [
            runner.mean_redundancy(_config(discipline, window, mode, model, "A"))
            for model in issue_models
        ]
    data["_issue_models"] = list(issue_models)
    return data


# ----------------------------------------------------------------------
# Value speculation (beyond the paper): IPC per value-predictor kind
# ----------------------------------------------------------------------
def value_speculation_data(runner: SweepRunner,
                           issue_models: Sequence[int] = (2, 8),
                           memory: str = "C",
                           kinds: Sequence[str] = (
                               "none", "last", "stride", "context",
                               "perfect",
                           )) -> Dict[str, List[float]]:
    """Geometric-mean IPC per value-predictor kind, dyn256/enlarged.

    Memory C (constant 3-cycle loads) is the slowest perfect memory in
    the grid -- the regime where hiding load latency behind a predicted
    operand pays the most, so the branch-only vs branch+value gap is
    clearest there.
    """
    data: Dict[str, List[float]] = {}
    for kind in kinds:
        data[kind] = [
            runner.mean_ipc(MachineConfig(
                discipline=Discipline.DYNAMIC,
                issue_model=model,
                memory=memory,
                branch_mode=BranchMode.ENLARGED,
                window_blocks=256,
                value_predictor=kind,
            ))
            for model in issue_models
        ]
    data["_issue_models"] = list(issue_models)
    return data


# ----------------------------------------------------------------------
# Section 3.1: static ALU:memory node ratio
# ----------------------------------------------------------------------
def static_ratio_data(runner: SweepRunner) -> Dict[str, float]:
    """Static ALU:MEM node ratio per benchmark (paper reports ~2.5)."""
    ratios = {}
    for name in runner.benchmarks:
        workload = runner.workload(name)
        alu, mem = workload.single.static_node_counts()
        ratios[name] = alu / mem if mem else float("inf")
    return ratios


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_series_table(title: str, columns: Sequence[str],
                        series: Dict[str, List[float]],
                        value_format: str = "{:7.3f}") -> str:
    """ASCII table: one row per series, one column per x position."""
    width = max(len(str(c)) for c in columns)
    width = max(width, 7)
    lines = [title]
    header = " " * 18 + " ".join(f"{str(c):>{width}s}" for c in columns)
    lines.append(header)
    for label, values in series.items():
        if label.startswith("_"):
            continue
        cells = " ".join(
            f"{value_format.format(v):>{width}s}" for v in values
        )
        lines.append(f"{label:18s}{cells}")
    return "\n".join(lines)
