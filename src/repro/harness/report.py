"""EXPERIMENTS.md assembly: paper expectation vs measured, per figure.

Every claim the report checks is one row of :data:`CLAIMS`, which holds
that claim's only bound.  The Verdicts section is rendered from the
rows, and :func:`generate_report` returns the rows that do not hold, so
``repro-sim report`` can exit non-zero on them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .figures import (
    figure2_data,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
    static_ratio_data,
    value_speculation_data,
)
from .plot import ascii_chart
from .runner import SweepRunner


def _md_table(columns: Sequence[str], rows: Dict[str, List[float]]) -> str:
    header = "| line | " + " | ".join(str(c) for c in columns) + " |"
    rule = "|---" * (len(columns) + 1) + "|"
    lines = [header, rule]
    for label, values in rows.items():
        if label.startswith("_"):
            continue
        cells = " | ".join(f"{v:.3f}" for v in values)
        lines.append(f"| {label} | {cells} |")
    return "\n".join(lines)


def report_data(runner: SweepRunner) -> Dict[str, Any]:
    """Everything the report prints and its claims read: the only part
    of the report that touches the runner (so runs missing simulations)."""
    return {
        "ratios": static_ratio_data(runner),
        "fig2": figure2_data(runner),
        "fig3": figure3_data(runner),
        "fig4": figure4_data(runner),
        "fig5": figure5_data(runner),
        "fig6": figure6_data(runner),
        "spec": value_speculation_data(runner),
        "spec_accuracy": _speculation_accuracy_line(runner),
        "sched": schedule_gap_data(runner),
    }


def generate_report(runner: Optional[SweepRunner] = None,
                    ) -> Tuple[str, List[str]]:
    """Build the full EXPERIMENTS.md body (runs any missing simulations).

    Returns the text and one line per :data:`CLAIMS` row that does not
    hold; every claim holds when the list is empty.
    """
    runner = runner or SweepRunner()
    data = report_data(runner)
    sections: List[str] = []
    sections.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Reproduction of the evaluation of Melvin & Patt (ISCA 1991).\n"
        f"Benchmarks: {', '.join(runner.benchmarks)} (scale {runner.scale}).\n"
        "Absolute numbers are not expected to match the paper's VAX-derived\n"
        "traces; the claims below are about the *shape* of each result.\n"
    )

    ratios = data["ratios"]
    mean_ratio = sum(ratios.values()) / len(ratios)
    sections.append(
        "## §3.1 Static ALU:memory node ratio\n\n"
        "Paper: \"the static ratio of ALU to memory nodes was about 2.5 to "
        "one\".\n\n"
        + "\n".join(f"- {name}: {value:.2f}" for name, value in ratios.items())
        + f"\n- **mean: {mean_ratio:.2f}**\n"
    )

    fig2 = data["fig2"]
    rows2 = {"single": fig2["single"], "enlarged": fig2["enlarged"]}
    sections.append(
        "## Figure 2 — dynamic basic block size histograms\n\n"
        "Paper: original blocks are small and highly skewed (over half of\n"
        "executed blocks are 0-4 nodes); enlargement makes the curve much\n"
        "flatter.  Fractions of executed blocks per size bucket:\n\n"
        + _md_table(fig2["buckets"], rows2)
        + f"\n\nMeasured: {fig2['single'][0] * 100:.0f}% of single-mode blocks"
        f" are 0-4 nodes vs {fig2['enlarged'][0] * 100:.0f}% after"
        " enlargement.\n"
    )

    fig3 = data["fig3"]
    sections.append(
        "## Figure 3 — retired nodes/cycle vs issue model (memory A)\n\n"
        "Paper: variation among schemes grows with word width; enlargement\n"
        "helps every discipline; dyn window 1 is close to static; window 4\n"
        "comes close to window 256; combining both mechanisms beats either\n"
        "alone; realistic wide machines reach speedups of three to six.\n\n"
        + _md_table([str(m) for m in fig3["_issue_models"]], fig3)
        + "\n\n```\n"
        + ascii_chart(fig3, [str(m) for m in fig3["_issue_models"]],
                      title="retired nodes/cycle vs issue model")
        + "\n```\n"
    )

    fig4 = data["fig4"]
    sections.append(
        "## Figure 4 — retired nodes/cycle vs memory config (issue model 8)\n\n"
        "Paper: line slopes are similar, so higher-performing machines lose\n"
        "a smaller *fraction* going to slower memory (latency tolerance\n"
        "correlates with performance); the fully pipelined memory keeps\n"
        "even 3-cycle memory from being catastrophic.\n\n"
        + _md_table(fig4["_memories"], fig4)
        + "\n"
    )

    fig5 = data["fig5"]
    sections.append(
        "## Figure 5 — per-benchmark variation (dyn window 4, enlarged)\n\n"
        "Paper: percentage variation among benchmarks is higher for wide\n"
        "multinodewords; several benchmarks dip from config 5B to 5D (1K\n"
        "cache with low locality is worse than constant 2-cycle memory).\n\n"
        + _md_table(fig5["_composites"], fig5)
        + "\n"
    )

    fig6 = data["fig6"]
    sections.append(
        "## Figure 6 — operation redundancy vs issue model (memory A)\n\n"
        "Paper: ordering is the inverse of Figure 3 (higher-performing\n"
        "machines throw away more operations); dyn-256/enlarged discards\n"
        "nearly one of four executed nodes, while window 4 discards far\n"
        "fewer at nearly the same performance.\n\n"
        + _md_table([str(m) for m in fig6["_issue_models"]], fig6)
        + "\n"
    )

    sections.append(value_speculation_section(data["spec"],
                                              data["spec_accuracy"]))
    sections.append(schedule_gap_section(data["sched"]))
    verdicts, failures = verdicts_section(data)
    sections.append(verdicts)
    ablations = _ablation_section()
    if ablations:
        sections.append(ablations)
    return "\n".join(sections), failures


def _speculation_accuracy_line(runner: SweepRunner) -> str:
    """Aggregate branch/value accuracy at the widest spec-grid point."""
    from ..machine.config import BranchMode, Discipline, MachineConfig

    branch = {"lookups": 0, "mispredicts": 0}
    value: Dict[str, List[int]] = {}
    for kind in ("last", "stride", "context"):
        totals = [0, 0]  # delivered, confirmed
        for name in runner.benchmarks:
            result = runner.run_point(name, MachineConfig(
                discipline=Discipline.DYNAMIC, issue_model=8, memory="C",
                branch_mode=BranchMode.ENLARGED, window_blocks=256,
                value_predictor=kind,
            ))
            totals[0] += result.value_predictions
            totals[1] += result.value_confirmed
            if kind == "last":
                branch["lookups"] += result.branch_lookups
                branch["mispredicts"] += result.mispredicts
        value[kind] = totals
    branch_acc = (1.0 - branch["mispredicts"] / branch["lookups"]
                  if branch["lookups"] else 1.0)
    value_accs = ", ".join(
        f"{kind} {confirmed / delivered:.3f}" if delivered else f"{kind} n/a"
        for kind, (delivered, confirmed) in value.items()
    )
    return (
        f"Aggregate prediction accuracy at issue model 8 (memory C):"
        f" branch {branch_acc:.3f}; value — {value_accs}"
        " (confirmed / delivered; the confidence gate holds delivery"
        " back until a site has proven itself)."
    )


def _best_value_predictor(spec: Dict[str, List[float]]) -> str:
    """The realistic value-predictor kind with the highest widest-model IPC."""
    return max(("last", "stride", "context"), key=lambda kind: spec[kind][-1])


def value_speculation_section(spec: Dict[str, List[float]],
                              accuracy_line: str) -> str:
    """The beyond-the-paper value-speculation table and speedup note."""
    models = [str(m) for m in spec["_issue_models"]]
    branch_only = spec["none"][-1]
    best_real = spec[_best_value_predictor(spec)][-1]
    oracle = spec["perfect"][-1]
    return (
        "## Value speculation (beyond the paper)\n\n"
        "Speculative operand delivery on the dyn-256/enlarged machine\n"
        "with 3-cycle loads (memory C): a confident load-value\n"
        "prediction lets dependents issue one cycle after the load, and\n"
        "verification squashes and replays the dependent subtree when\n"
        "the prediction was wrong.  Geometric-mean IPC per predictor\n"
        "kind over the issue models:\n\n"
        + _md_table(models, {k: v for k, v in spec.items()
                             if not k.startswith("_")})
        + f"\n\nAt issue model {models[-1]}, the best realistic value"
        f" predictor reaches {best_real / branch_only:.2f}x the"
        f" branch-only machine ({best_real:.3f} vs {branch_only:.3f}"
        f" IPC); the perfect-value oracle shows"
        f" {oracle / branch_only:.2f}x headroom.  Branch speculation"
        " alone leaves this latency on the table: the two mechanisms"
        " compose.\n\n"
        + accuracy_line + "\n"
    )


def schedule_gap_data(runner: SweepRunner) -> List[Tuple[str, Any, float, float]]:
    """Per benchmark of the list-vs-optimal study: the enlarged program's
    ``optsched.ProgramAnalysis`` at issue model 5 / memory A, and the IPC
    of its list and optimal sched-grid points."""
    from ..machine.config import (
        BranchMode,
        Discipline,
        ISSUE_MODELS,
        MEMORY_CONFIGS,
        MachineConfig,
    )
    from ..optsched import analyze_program

    issue = ISSUE_MODELS[5]
    memory = MEMORY_CONFIGS["A"]
    rows = []
    for name in runner.benchmarks:
        workload = runner.workload(name)
        analysis = analyze_program(workload.enlarged, issue, memory)
        base = MachineConfig(
            discipline=Discipline.STATIC, issue_model=5, memory="A",
            branch_mode=BranchMode.ENLARGED,
        )
        listed = runner.run_point(name, base)
        optimal = runner.run_point(
            name, dataclasses.replace(base, optimal_schedule=True)
        )
        rows.append((name, analysis, listed.retired_per_cycle,
                     optimal.retired_per_cycle))
    return rows


def schedule_gap_section(rows: List[Tuple[str, Any, float, float]]) -> str:
    """Render :func:`schedule_gap_data`: the word-gap table per benchmark
    and, per innermost loop, the modulo-scheduling II against its MII."""
    table = [
        "| benchmark | blocks | closed | list words | optimal | lower"
        " bound | gap | IPC (list) | IPC (optimal) |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    loop_rows = [
        "| benchmark | loop block | nodes | ResMII | RecMII | MII | II"
        " | serial | status |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name, analysis, listed, optimal in rows:
        table.append(
            f"| {name} | {len(analysis.blocks)}"
            f" | {analysis.closed_blocks} | {analysis.list_words}"
            f" | {analysis.optimal_words} | {analysis.lower_bound_words}"
            f" | {analysis.gap_percent:.1f}%"
            f" | {listed:.3f}"
            f" | {optimal:.3f} |"
        )
        for loop in analysis.loops:
            status = ("II = MII (optimal)" if loop.closed
                      else "pipelined" if loop.pipelined else "fallback")
            loop_rows.append(
                f"| {name} | `{loop.label}` | {loop.node_count}"
                f" | {loop.res_mii} | {loop.rec_mii} | {loop.mii}"
                f" | {loop.ii} | {loop.list_makespan} | {status} |"
            )
    body = (
        "## Optimal static scheduling (beyond the paper)\n\n"
        "The exact solver (repro.optsched) re-packs every static block\n"
        "with a certificate `makespan == lower bound`, quantifying what\n"
        "the greedy critical-path list scheduler leaves on the table at\n"
        "issue model 5 / memory A.  Word gaps are static (per block\n"
        "visit weights differ), so the machine-level IPC columns use\n"
        "the measured sched-grid points:\n\n"
        + "\n".join(table)
    )
    if len(loop_rows) > 2:
        body += (
            "\n\nInnermost single-block loops, modulo-scheduled: II is\n"
            "the smallest initiation interval a kernel was found for,\n"
            "MII = max(ResMII, RecMII) its certified lower bound, and\n"
            "`serial` the list schedule's makespan (the no-overlap II).\n"
            "The engine replays one block at a time, so these kernels\n"
            "are reported as analysis rather than wired into timing:\n\n"
            + "\n".join(loop_rows)
        )
    return body + "\n"


def _ablation_section() -> str:
    """Fold in any ablation tables the benchmark suite has produced."""
    import glob
    import os

    pattern = os.path.join("benchmarks", "results", "ablation_*.txt")
    tables = []
    for path in sorted(glob.glob(pattern)):
        try:
            with open(path, encoding="utf-8") as handle:
                tables.append(handle.read().rstrip())
        except OSError:
            continue
    if not tables:
        return ""
    body = "\n\n".join(tables)
    return (
        "## Ablations (beyond the paper)\n\n"
        "Produced by `pytest benchmarks/test_ablations.py`;"
        " see DESIGN.md for what each studies.\n\n"
        "```\n" + body + "\n```\n"
    )


@dataclasses.dataclass(frozen=True)
class Claim:
    """One Verdicts row: a claim, its metric and its only bound.

    The claim holds when every value ``measure`` reads from
    :func:`report_data` lies strictly between ``low`` and ``high`` (None
    leaves a side open).  A row with ``why`` asserts a documented
    deviation from the paper, so a change that flips it is noticed.
    """

    source: str
    words: str
    metric: str
    measure: Callable[[Dict[str, Any]], Sequence[float]]
    low: Optional[float] = None
    high: Optional[float] = None
    why: str = ""

    def bound(self) -> str:
        if self.low is None:
            return f"< {self.high:g}"
        if self.high is None:
            return f"> {self.low:g}"
        return f"{self.low:g}–{self.high:g}"

    def evaluate(self, data: Dict[str, Any]) -> Tuple[str, bool]:
        """The Measured text and whether the claim holds on ``data``."""
        values = list(self.measure(data))
        holds = all((self.low is None or value > self.low)
                    and (self.high is None or value < self.high)
                    for value in values)
        if len(values) > 4:
            return f"{min(values):.3g}–{max(values):.3g}", holds
        return ", ".join(f"{value:.3g}" for value in values), holds


def _at(figure: Dict[str, List[float]], index: int) -> Dict[str, float]:
    """Every line's value at one x position of a figure."""
    return {label: series[index] for label, series in figure.items()
            if not label.startswith("_")}


def _spread(figure: Dict[str, List[float]], index: int) -> float:
    """Best over worst line at one x position of a figure."""
    values = _at(figure, index).values()
    return max(values) / min(values)


def _ratio(figure: str, *pairs: Tuple[str, str]):
    """Each pair's first line over its second at the widest issue model."""
    return lambda data: [data[figure][top][-1] / data[figure][bottom][-1]
                         for top, bottom in pairs]


def _memory_losses(data) -> Dict[str, float]:
    """Fraction of its IPC each Figure 4 line loses from memory A to C."""
    fig4 = data["fig4"]
    a, c = fig4["_memories"].index("A"), fig4["_memories"].index("C")
    return {label: 1 - series[c] / series[a]
            for label, series in fig4.items() if not label.startswith("_")}


def _latency_tolerance(data) -> List[float]:
    at_a = _at(data["fig4"], data["fig4"]["_memories"].index("A"))
    losses = _memory_losses(data)
    return [losses[max(at_a, key=at_a.get)] - losses[min(at_a, key=at_a.get)]]


def _locality_dips(data) -> List[int]:
    fig5 = data["fig5"]
    b, d = fig5["_composites"].index("5B"), fig5["_composites"].index("5D")
    return [sum(1 for name, series in fig5.items()
                if not name.startswith("_") and series[d] < series[b])]


def _redundancy_steps(data) -> List[float]:
    wide = _at(data["fig6"], -1)
    levels = [wide[f"dyn{window}/single"] for window in (1, 4, 256)]
    return [after - before for before, after in zip(levels, levels[1:])]


def _inverse_order(data) -> List[int]:
    """IPC rank (1 = fastest) of the most redundant realistic line."""
    ipc, redundancy = _at(data["fig3"], -1), _at(data["fig6"], -1)
    realistic = [label for label in redundancy if not label.endswith("perfect")]
    most = max(realistic, key=redundancy.get)
    return [1 + sorted(realistic, key=ipc.get, reverse=True).index(most)]


#: Every claim the report checks, in report order, each with its only
#: bound.  "Model 8" is the widest issue model of Figures 3 and 6.
CLAIMS: Tuple[Claim, ...] = (
    Claim("§3.1", "the static ratio of ALU to memory nodes was about 2.5"
          " to one", "ALU:memory node ratio, each program",
          lambda d: d["ratios"].values(), 1.5, 4.5),
    Claim("Fig. 2", "over half of executed blocks are 0-4 nodes",
          "share of executed single blocks with 0-4 nodes",
          lambda d: [d["fig2"]["single"][0]], low=0.5),
    Claim("Fig. 2", "enlargement makes the curve much flatter",
          "share of executed enlarged blocks with 0-4 nodes",
          lambda d: [d["fig2"]["enlarged"][0]], high=0.5),
    Claim("Fig. 3", "variation among schemes is low at narrow words and"
          " grows with width", "best/worst line IPC spread, model 8 over"
          " model 2", lambda d: [_spread(d["fig3"], -1) / _spread(d["fig3"], 1)],
          low=1.0),
    Claim("Fig. 3", "enlargement benefits every discipline",
          "enlarged over single IPC at model 8: static, dyn1, dyn4, dyn256",
          _ratio("fig3", *((f"{base}/enlarged", f"{base}/single")
                           for base in ("static", "dyn1", "dyn4", "dyn256"))),
          low=1.0),
    Claim("Fig. 3", "window 4 comes close to window 256",
          "dyn4/enlarged over dyn256/enlarged IPC, model 8",
          _ratio("fig3", ("dyn4/enlarged", "dyn256/enlarged")), 0.7, 0.95),
    Claim("Fig. 3", "enlarged blocks at window 1 fall below single blocks"
          " at window 4, but close", "dyn1/enlarged over dyn4/single IPC,"
          " model 8", _ratio("fig3", ("dyn1/enlarged", "dyn4/single")),
          high=1.0),
    Claim("Fig. 3", "combining both mechanisms beats either alone",
          "dyn256/enlarged IPC over dyn256/single and over static/enlarged,"
          " model 8",
          _ratio("fig3", ("dyn256/enlarged", "dyn256/single"),
                 ("dyn256/enlarged", "static/enlarged")), low=1.0),
    Claim("Fig. 3", "speedups of three to six on realistic processors",
          "dyn256/enlarged IPC at model 8 over static/single at model 1"
          " (sequential)", lambda d: [d["fig3"]["dyn256/enlarged"][-1]
                                      / d["fig3"]["static/single"][0]],
          3.0, 6.5),
    Claim("Fig. 3", "perfect prediction leaves headroom above window 256",
          "dyn256/perfect over dyn256/enlarged IPC, model 8",
          _ratio("fig3", ("dyn256/perfect", "dyn256/enlarged")), low=1.0),
    Claim("Fig. 3", "dynamic window 1 lands slightly below static"
          " scheduling (the paper places it slightly above)",
          "dyn1/single over static/single IPC, model 8",
          _ratio("fig3", ("dyn1/single", "static/single")), 0.5, 1.0,
          why="Our static engine overlaps in-order issue across block"
              " boundaries (outstanding loads keep flowing), which a"
              " window of one structurally cannot; the paper's static"
              " model appears weaker."),
    Claim("Fig. 4", "the fully pipelined memory keeps even 3-cycle memory"
          " from being catastrophic", "fraction of IPC each line loses"
          " from memory A to C", lambda d: _memory_losses(d).values(),
          0.0, 0.6),
    Claim("Fig. 4", "higher-performing machines lose a smaller fraction"
          " going to slower memory", "A-to-C loss of the fastest line at A"
          " minus that of the slowest", _latency_tolerance, high=0.25),
    Claim("Fig. 5", "percentage variation among benchmarks is higher for"
          " wide multinodewords", "best/worst program IPC spread, the"
          " larger of 8F and 8C over 1A",
          lambda d: [max(_spread(d["fig5"], -1), _spread(d["fig5"], -2))
                     / _spread(d["fig5"], 0)], low=0.9),
    Claim("Fig. 5", "several benchmarks dip from config 5B to 5D",
          "programs slower at 5D than at 5B", _locality_dips, low=0),
    Claim("Fig. 6", "dyn-256/enlarged discards nearly one of four executed"
          " nodes", "dyn256/enlarged redundancy, model 8",
          lambda d: [d["fig6"]["dyn256/enlarged"][-1]], 0.15, 0.35),
    Claim("Fig. 6", "window 1 discards essentially nothing",
          "dyn1/single redundancy, model 8",
          lambda d: [d["fig6"]["dyn1/single"][-1]], high=0.01),
    Claim("Fig. 6", "redundancy rises with window size", "single-block"
          " redundancy steps dyn1 → dyn4 → dyn256, model 8",
          _redundancy_steps, low=0.0),
    Claim("Fig. 6", "ordering is the inverse of Figure 3: higher-performing"
          " machines throw away more operations", "IPC rank at model 8"
          " (1 = fastest) of the most redundant realistic line",
          _inverse_order, high=4),
    Claim("Fig. 6", "perfect prediction discards less than realistic"
          " prediction", "dyn256/perfect over dyn256/enlarged redundancy,"
          " model 8", _ratio("fig6", ("dyn256/perfect", "dyn256/enlarged")),
          high=1.0),
    Claim("Fig. 6", "enlarged-block redundancy at narrow issue is higher"
          " than the paper's Figure 6 suggests", "redundancy of each"
          " enlarged line at model 1",
          lambda d: [value for label, value in _at(d["fig6"], 0).items()
                     if label.endswith("/enlarged")], low=0.05,
          why="Fault recovery re-executes the original path and repeated"
              " faults chain (the paper's 'predict on faults' improvement"
              " is unimplemented there too)."),
    Claim("Fig. 6", "window 4 discards nearly as many nodes as window 256"
          " (the paper: far fewer)", "dyn4/enlarged over dyn256/enlarged"
          " redundancy, model 8",
          _ratio("fig6", ("dyn4/enlarged", "dyn256/enlarged")), 0.8, 1.0,
          why="Most nodes discarded on enlarged blocks come from fault"
              " recovery, which every window size pays alike (the"
              " perfect-prediction lines never run a wrong path and"
              " still discard most of them); the window bounds only the"
              " wrong-path share."),
    Claim("Value speculation", "branch and value speculation compose",
          "best realistic value predictor over branch-only IPC,"
          " dyn256/enlarged, model 8, memory C",
          lambda d: _ratio("spec", (_best_value_predictor(d["spec"]),
                                    "none"))(d), 1.05, 1.25),
    Claim("Value speculation", "a perfect-value oracle shows the headroom"
          " left", "perfect-value over branch-only IPC, same machine",
          _ratio("spec", ("perfect", "none")), 1.3, 1.7),
    Claim("Optimal scheduling", "the greedy list scheduler leaves static"
          " words on the table", "list-vs-optimal word gap (%), each"
          " program, issue model 5",
          lambda d: [analysis.gap_percent for _, analysis, _, _ in d["sched"]],
          15, 35),
)


def verdicts_section(data: Dict[str, Any]) -> Tuple[str, List[str]]:
    """The Verdicts section rendered from :data:`CLAIMS`, and one line
    per row that does not hold."""
    lines = [
        "## Verdicts\n",
        "One row per claim, holding its only bound; `repro-sim report`\n"
        "exits 4 and names the row when a measured value falls outside it.\n"
        "Deviation rows assert a documented departure from the paper, so a\n"
        "change that flips one is noticed.\n",
        "| Source | Claim | Metric | Measured | Bound | Holds |",
        "|---|---|---|---|---|---|",
    ]
    deviations = []
    failures = []
    for claim in CLAIMS:
        shown, holds = claim.evaluate(data)
        source = f"{claim.source}, deviation" if claim.why else claim.source
        lines.append(
            f"| {source} | {claim.words} | {claim.metric} | {shown}"
            f" | {claim.bound()} | {'yes' if holds else '**NO**'} |"
        )
        if claim.why:
            deviations.append(f"* {claim.source}: {claim.words}. {claim.why}")
        if not holds:
            failures.append(f"{source}: {claim.words}: measured {shown},"
                            f" bound {claim.bound()}")
    lines += [
        "",
        "### Known deviations\n",
        *deviations,
        "* Absolute retired-nodes/cycle values differ from the paper's "
        "(different ISA, compiler and inputs); all claims above are "
        "shape-level, as planned in DESIGN.md.",
        "",
    ]
    return "\n".join(lines), failures
