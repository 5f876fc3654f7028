"""Ablations beyond the paper's figures.

These quantify the design choices DESIGN.md calls out:

* window-size sweep at a finer grain than the paper's {1, 4, 256};
* branch predictor family (the paper conjectures "more sophisticated
  techniques could yield better prediction");
* static-hint supplement on/off;
* enlargement thresholds (arc ratio / cumulative retire probability).

Run on a two-benchmark subset (grep, sort) to keep cost proportionate.
"""

import pytest

from repro.enlarge.plan import EnlargeConfig
from repro.harness import (
    PointTask,
    SerialBackend,
    SweepRunner,
    geometric_mean,
    render_series_table,
    run_sweep,
)
from repro.harness.cache import result_key
from repro.machine.config import BranchMode, Discipline, MachineConfig
from repro.machine.simulator import simulate
from repro.workloads import WORKLOADS

from .conftest import write_table

ABLATION_BENCHMARKS = ("grep", "sort")
WINDOWS = (1, 2, 4, 8, 16, 64, 256)
PREDICTORS = ("nottaken", "taken", "static", "onebit", "twobit", "gshare")


@pytest.fixture(scope="module")
def ablation_runner():
    return SweepRunner(benchmarks=list(ABLATION_BENCHMARKS))


def points(runner, configs):
    """Per configuration, each benchmark's result, run through the sweep
    loop (cached points are not re-simulated)."""
    tasks = [[PointTask(name, point, result_key(name, point, runner.scale))
              for name in runner.benchmarks] for point in configs]
    tally = run_sweep(runner, SerialBackend(runner),
                      [task for row in tasks for task in row])
    assert tally.failures == []
    return [[tally.results[task.key] for task in row] for row in tasks]


def ipc_means(runner, configs):
    """Geometric-mean IPC across the benchmarks, per configuration."""
    return [geometric_mean([result.retired_per_cycle for result in row])
            for row in points(runner, configs)]


def config(window=4, mode=BranchMode.ENLARGED, predictor="twobit",
           hints=True, issue=8, memory="A"):
    return MachineConfig(
        discipline=Discipline.DYNAMIC,
        issue_model=issue,
        memory=memory,
        branch_mode=mode,
        window_blocks=window,
        static_hints=hints,
        predictor=predictor,
    )


def test_window_sweep(ablation_runner):
    data = {
        "dyn/enlarged": ipc_means(
            ablation_runner, [config(window=w) for w in WINDOWS]),
        "dyn/single": ipc_means(
            ablation_runner,
            [config(window=w, mode=BranchMode.SINGLE) for w in WINDOWS]),
    }
    table = render_series_table(
        "Ablation: window size sweep (issue model 8, memory A)",
        [str(w) for w in WINDOWS],
        data,
    )
    write_table("ablation_window.txt", table)

    series = data["dyn/enlarged"]
    # Monotone non-decreasing IPC with window size (small tolerance).
    for before, after in zip(series, series[1:]):
        assert after >= before * 0.97
    # Diminishing returns: the first quadrupling (1 -> 4) buys more than
    # the last (64 -> 256).
    first_gain = series[2] - series[0]
    last_gain = series[-1] - series[-2]
    assert first_gain > last_gain


def test_predictor_ablation(ablation_runner):
    ipc = {}
    accuracy = {}
    rows = points(ablation_runner,
                  [config(predictor=kind) for kind in PREDICTORS])
    for kind, results in zip(PREDICTORS, rows):
        ipc[kind] = sum(r.retired_per_cycle for r in results) / len(results)
        accuracy[kind] = sum(r.branch_accuracy for r in results) / len(results)
    table = render_series_table(
        "Ablation: branch predictor family (dyn4/enlarged, issue 8, memory A)",
        PREDICTORS,
        {"IPC": [ipc[k] for k in PREDICTORS],
         "accuracy": [accuracy[k] for k in PREDICTORS]},
        value_format="{:7.4f}",
    )
    write_table("ablation_predictor.txt", table)

    # The 2-bit counter beats static-only and 1-bit schemes.
    assert accuracy["twobit"] >= accuracy["onebit"] - 0.02
    assert accuracy["twobit"] > accuracy["nottaken"]
    # gshare (post-paper) is at least as accurate as the 2-bit counter,
    # supporting the paper's better-prediction conjecture.
    assert accuracy["gshare"] >= accuracy["twobit"] - 0.02
    # Better prediction translates into performance.
    assert ipc["twobit"] > ipc["nottaken"]


def test_static_hints_ablation(ablation_runner):
    with_hints, without = points(
        ablation_runner, [config(hints=True), config(hints=False)])
    rows = {
        "with hints": [r.branch_accuracy for r in with_hints],
        "without": [r.branch_accuracy for r in without],
    }
    table = render_series_table(
        "Ablation: static-hint supplement (branch accuracy)",
        list(ABLATION_BENCHMARKS),
        rows,
        value_format="{:7.4f}",
    )
    write_table("ablation_hints.txt", table)

    # Hints only matter on cold branches, so the effect is small but
    # must never hurt on these profile-matched inputs.
    total_with = sum(r.mispredicts for r in with_hints)
    total_without = sum(r.mispredicts for r in without)
    assert total_with <= total_without * 1.05


def test_enlargement_threshold_ablation():
    """Stricter arc thresholds trade block size against fault rate."""
    configs = {
        "aggressive": EnlargeConfig(min_arc_ratio=0.55, min_cum_ratio=0.10),
        "default": EnlargeConfig(),
        "conservative": EnlargeConfig(min_arc_ratio=0.92, min_cum_ratio=0.75),
    }
    stats = {}
    for name, enlarge_config in configs.items():
        workload = WORKLOADS["grep"].prepare(enlarge_config=enlarge_config)
        result = simulate(workload, config(window=4))
        trace = workload.enlarged_trace
        faults = sum(1 for f in trace.fault_indices if f >= 0)
        stats[name] = {
            "ipc": result.retired_per_cycle,
            "fault_rate": faults / max(len(trace), 1),
            "redundancy": result.redundancy,
        }
    names = list(configs)
    table = render_series_table(
        "Ablation: enlargement thresholds (grep, dyn4/enlarged)",
        names,
        {
            "IPC": [stats[n]["ipc"] for n in names],
            "fault rate": [stats[n]["fault_rate"] for n in names],
            "redundancy": [stats[n]["redundancy"] for n in names],
        },
        value_format="{:7.4f}",
    )
    write_table("ablation_enlargement.txt", table)

    # Stricter thresholds monotonically reduce the fault rate.
    assert (
        stats["conservative"]["fault_rate"]
        <= stats["default"]["fault_rate"]
        <= stats["aggressive"]["fault_rate"] + 1e-9
    )
    # There is an interior optimum: the default beats at least one extreme
    # (the paper: "there is an optimal point between the enlargement of
    # basic blocks and the use of dynamic scheduling").
    assert stats["default"]["ipc"] >= min(
        stats["aggressive"]["ipc"], stats["conservative"]["ipc"]
    )


def test_wider_words_extension(ablation_runner):
    """Beyond the paper: issue models 9 (8M+24A) and 10 (16M+48A).

    The paper conjectures "even more parallelism could be exploited with
    more paths to memory"; this extension quantifies how much of that
    holds for realistic vs perfect prediction.
    """
    models = (7, 8, 9, 10)
    data = {
        "dyn256/enlarged": ipc_means(
            ablation_runner, [config(window=256, issue=m) for m in models]),
        "dyn256/perfect": ipc_means(
            ablation_runner,
            [config(window=256, issue=m, mode=BranchMode.PERFECT)
             for m in models]),
    }
    table = render_series_table(
        "Ablation: wider multinodewords (extension models 9 and 10)",
        [str(m) for m in models],
        data,
    )
    write_table("ablation_wide_words.txt", table)

    realistic = data["dyn256/enlarged"]
    perfect = data["dyn256/perfect"]
    # Wider words never hurt.
    assert realistic[-1] >= realistic[0] * 0.97
    # The realistic line saturates: the last doubling gains less than
    # the 7 -> 8 step did, relative to width.
    assert realistic[-1] - realistic[-2] <= (realistic[1] - realistic[0]) + 0.5
    # Perfect prediction keeps scaling better than realistic prediction,
    # i.e. the prediction gap widens with width.
    gap_narrow = perfect[0] - realistic[0]
    gap_wide = perfect[-1] - realistic[-1]
    assert gap_wide >= gap_narrow * 0.8


def test_fill_unit_vs_profile_enlargement():
    """Extension: run-time (fill unit) vs compile-time (profile) units.

    The paper enlarges offline from profile data but floats "possibly a
    hardware unit"; its [MeSP88] reference describes the fill unit this
    compares against.  Run-time units are built from the *training* trace
    only (warm-up), then evaluated on the evaluation input like the
    offline flow.
    """
    from repro.enlarge import fill_unit_enlarge
    from repro.interp import run_program
    from repro.machine.simulator import PreparedWorkload

    stats = {}
    workload = WORKLOADS["grep"]
    program = workload.compile()
    train = workload.make_inputs("train")
    eval_inputs = workload.make_inputs("eval")

    # Offline (paper) flow, via the standard preparation.
    offline = workload.prepare()
    offline_result = simulate(offline, config(window=4))
    stats["profile (offline)"] = offline_result.retired_per_cycle

    # Run-time flow: observe the training trace, build units, trace
    # the enlarged program on the evaluation input.
    observed = run_program(program, inputs=train)
    enlarged = fill_unit_enlarge(program, observed.trace)
    single_eval = run_program(program, inputs=eval_inputs)
    enlarged_eval = run_program(enlarged, inputs=eval_inputs)
    assert enlarged_eval.output == single_eval.output
    runtime_wl = PreparedWorkload(
        "grep-fill", program, enlarged,
        single_eval.trace, enlarged_eval.trace,
    )
    runtime_result = simulate(runtime_wl, config(window=4))
    stats["fill unit (runtime)"] = runtime_result.retired_per_cycle

    # Baseline without any enlargement.
    stats["single blocks"] = simulate(
        offline, config(window=4, mode=BranchMode.SINGLE)
    ).retired_per_cycle
    names = list(stats)
    table = render_series_table(
        "Ablation: offline vs run-time enlargement (grep, dyn4, issue 8)",
        names,
        {"IPC": [stats[n] for n in names]},
    )
    write_table("ablation_fill_unit.txt", table)

    # Both enlargement styles must beat single blocks at wide issue.
    assert stats["profile (offline)"] > stats["single blocks"]
    assert stats["fill unit (runtime)"] > stats["single blocks"]
