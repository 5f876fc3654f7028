"""Per-figure data generators for the paper's evaluation section.

Every figure in the paper's section 3 has a function here that produces
its data series; the timing figures read the ``report`` grid's results
by result-cache key.  ``repro-sim report`` assembles them all into
EXPERIMENTS.md and judges them against its claims table
(``repro.harness.report.CLAIMS``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from ..interp.trace import Trace
from ..machine.config import (
    BranchMode,
    Discipline,
    FIGURE4_MEMORY_ORDER,
    FIGURE5_COMPOSITES,
    MachineConfig,
    PAPER_ISSUE_MODELS,
    SPEC_ISSUE_MODELS,
    SPEC_VALUE_PREDICTORS,
    scheduling_disciplines,
)
from ..stats.results import SimResult
from .cache import result_key
from .runner import SweepRunner, geometric_mean

#: A sweep tally's results: result-cache key -> result.
Results = Mapping[str, SimResult]


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


def point_results(runner: SweepRunner, results: Results,
                  config: MachineConfig) -> List[SimResult]:
    """Each of the runner's benchmarks' result at ``config``."""
    return [results[result_key(name, config, runner.scale)]
            for name in runner.benchmarks]


def _ipc(runner: SweepRunner, results: Results, config: MachineConfig) -> float:
    """Geometric-mean retired nodes per cycle across the benchmarks."""
    values = [r.retired_per_cycle for r in point_results(runner, results, config)]
    return geometric_mean(values, collector=runner.collector,
                          label=f"IPC at {config}")


def _redundancy(runner: SweepRunner, results: Results,
                config: MachineConfig) -> float:
    """Arithmetic-mean redundancy across the benchmarks."""
    values = [r.redundancy for r in point_results(runner, results, config)]
    return sum(values) / len(values)


def _over_issue_models(runner: SweepRunner, results: Results,
                       mean: Callable[..., float]) -> Dict[str, List[float]]:
    """``mean`` per discipline line over the issue models (memory A)."""
    data = {label: [mean(runner, results,
                         _config(discipline, window, mode, model, "A"))
                    for model in PAPER_ISSUE_MODELS]
            for label, discipline, window, mode in discipline_lines()}
    data["_issue_models"] = list(PAPER_ISSUE_MODELS)
    return data


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
def figure3_data(runner: SweepRunner, results: Results) -> Dict[str, List[float]]:
    """Geometric-mean IPC per discipline line over the issue models."""
    return _over_issue_models(runner, results, _ipc)


# ----------------------------------------------------------------------
# Figure 4: retired nodes/cycle vs memory configuration (issue model 8)
# ----------------------------------------------------------------------
def figure4_data(runner: SweepRunner, results: Results) -> Dict[str, List[float]]:
    """Geometric-mean IPC per discipline line over memory configs."""
    data: Dict[str, List[float]] = {}
    for label, discipline, window, mode in discipline_lines():
        data[label] = [
            _ipc(runner, results, _config(discipline, window, mode, 8, memory))
            for memory in FIGURE4_MEMORY_ORDER
        ]
    data["_memories"] = list(FIGURE4_MEMORY_ORDER)
    return data


# ----------------------------------------------------------------------
# Figure 5: per-benchmark variation over composite configurations
# ----------------------------------------------------------------------
def figure5_data(runner: SweepRunner, results: Results) -> Dict[str, List[float]]:
    """Per-benchmark IPC on dyn-window-4/enlarged over composite configs."""
    data: Dict[str, List[float]] = {}
    for name in runner.benchmarks:
        series = []
        for issue_model, memory in FIGURE5_COMPOSITES:
            config = _config(
                Discipline.DYNAMIC, 4, BranchMode.ENLARGED, issue_model, memory
            )
            series.append(
                results[result_key(name, config, runner.scale)].retired_per_cycle)
        data[name] = series
    data["_composites"] = [f"{model}{memory}"
                           for model, memory in FIGURE5_COMPOSITES]
    return data


# ----------------------------------------------------------------------
# Figure 6: operation redundancy vs issue model
# ----------------------------------------------------------------------
def figure6_data(runner: SweepRunner, results: Results) -> Dict[str, List[float]]:
    """Mean redundancy (discarded/executed) per discipline line."""
    return _over_issue_models(runner, results, _redundancy)


# ----------------------------------------------------------------------
# Value speculation (beyond the paper): IPC per value-predictor kind
# ----------------------------------------------------------------------
def value_speculation_data(runner: SweepRunner,
                           results: Results) -> Dict[str, List[float]]:
    """Geometric-mean IPC per value-predictor kind, dyn256/enlarged/C,
    on issue models 2 and 8.

    Memory C (constant 3-cycle loads) is the slowest perfect memory in
    the grid -- the regime where hiding load latency behind a predicted
    operand pays the most, so the branch-only vs branch+value gap is
    clearest there.
    """
    data: Dict[str, List[float]] = {}
    for kind in SPEC_VALUE_PREDICTORS:
        data[kind] = [
            _ipc(runner, results, MachineConfig(
                discipline=Discipline.DYNAMIC,
                issue_model=model,
                memory="C",
                branch_mode=BranchMode.ENLARGED,
                window_blocks=256,
                value_predictor=kind,
            ))
            for model in SPEC_ISSUE_MODELS
        ]
    data["_issue_models"] = list(SPEC_ISSUE_MODELS)
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
