"""Command-line interface: ``repro-sim``.

Subcommands:

* ``run``      -- simulate one benchmark on one machine configuration
  (``--trace-out FILE`` also writes its per-cycle pipeline trace)
* ``report``   -- sweep the ``report`` grid (cached points are not
  re-simulated), write the full EXPERIMENTS.md and gate on its table of
  paper claims
* ``dump``     -- print a benchmark's translated assembly (or DOT CFG)
* ``schedule`` -- per-block list-vs-optimal schedule study
* ``compile``  -- compile and run a user Mini-C source file
* ``sweep``    -- run a configuration grid through the validation oracle
  (invariants and dominance orders on every run, golden baselines under
  ``--check`` / ``--record``; resumable; ``--jobs N`` runs points in
  worker processes; see the "Validation & regression gating" section of
  DESIGN.md)
* ``serve``    -- run the long-lived simulation service daemon
* ``submit``   -- submit a grid job to a running daemon (``--wait``
  streams progress until it finishes)
* ``chaos``    -- fault-injection drill (fault-free vs faulted runs
  must converge)
* ``list``     -- list benchmarks and configuration axes

Performance is measured by ``python3 perfbench/run.py`` (see
``perfbench/README.md``), not by a verb of this tool.

``sweep``, ``report`` and ``chaos`` accept ``--metrics-out FILE``:
collect counters, phase-time histograms and cycle attribution, and
write the aggregated ``telemetry.json``.  See the "Observability"
section of DESIGN.md.  Function-level hot spots come from the standard
library: ``python -m cProfile -s tottime -m repro.cli run ...``.  The
global ``--log-json`` flag (or ``REPRO_LOG_JSON=1``) switches every
diagnostic line to one structured JSON object per line.

Exit codes: 0 success, 1 fatal harness error, 3 some points of a
``sweep``, ``report`` or ``run`` failed (structured ``PointFailure``
records on stderr; ``report`` then leaves its output file untouched) or
a submitted job finished ``failed``, 4 the validation oracle found
gating (``error``-severity) findings or a paper claim in ``report`` does
not hold (each failing row is named on stderr), 5 the service rejected
a job at admission (typed 429-style response; retry later).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, List, Optional

from .harness.report import generate_report
from .harness.runner import SweepRunner
from .machine.config import (
    BranchMode,
    Discipline,
    GRIDS,
    ISSUE_MODELS,
    MEMORY_CONFIGS,
    MachineConfig,
    WINDOW_SIZES,
)
from .machine.predictor import PREDICTOR_KINDS
from .predict import VALUE_PREDICTOR_KINDS
from .program.printer import format_program
from .workloads import WORKLOADS


def _add_config_arguments(command: argparse.ArgumentParser) -> None:
    """The machine-configuration axes of ``run``."""
    command.add_argument("--benchmark", required=True,
                         choices=sorted(WORKLOADS))
    command.add_argument("--discipline", choices=("static", "dynamic"),
                         default="dynamic")
    command.add_argument("--window", type=int, default=4,
                         help="window size in basic blocks (dynamic only)")
    command.add_argument("--issue", type=int, default=8,
                         choices=sorted(ISSUE_MODELS))
    command.add_argument("--memory", default="A",
                         choices=sorted(MEMORY_CONFIGS))
    command.add_argument("--branch", default="single",
                         choices=[mode.value for mode in BranchMode])
    command.add_argument("--predictor", default="twobit",
                         choices=PREDICTOR_KINDS,
                         help="branch predictor scheme (default: the"
                              " paper's 2-bit BTB)")
    command.add_argument("--value-predictor", default="none",
                         choices=VALUE_PREDICTOR_KINDS,
                         help="load-value predictor for speculative"
                              " operand delivery (dynamic machines only;"
                              " default: none)")
    command.add_argument("--optimal-schedule", action="store_true",
                         help="pack words with the exact solver instead"
                              " of the greedy list scheduler (static"
                              " machines only; see repro.optsched)")
    command.add_argument("--no-static-hints", action="store_true")
    command.add_argument("--scale", type=int, default=None)


def _config_from_args(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig(
        discipline=Discipline(args.discipline),
        issue_model=args.issue,
        memory=args.memory,
        branch_mode=BranchMode(args.branch),
        window_blocks=args.window if args.discipline == "dynamic" else 1,
        static_hints=not args.no_static_hints,
        predictor=args.predictor,
        value_predictor=args.value_predictor,
        optimal_schedule=getattr(args, "optimal_schedule", False),
    )


def _add_grid_arguments(command: argparse.ArgumentParser,
                        default_benchmarks: Optional[str] = None,
                        default_grid: Optional[str] = None) -> None:
    """The grid-spec axes shared by every grid verb.

    One definition instead of a per-subcommand copy, so every grid verb
    spells its selection flags identically.  ``default_grid`` adds
    ``--grid``, whose choices are the names in the grid table.
    """
    command.add_argument("--benchmarks", default=default_benchmarks,
                         help="comma-separated subset"
                              + (" (default: all five)"
                                 if default_benchmarks is None
                                 else f" (default: {default_benchmarks})"))
    command.add_argument("--scale", type=int, default=None,
                         help="input scale (default: REPRO_BENCH_SCALE or 1)")
    if default_grid is not None:
        command.add_argument(
            "--grid", choices=tuple(GRIDS), default=default_grid,
            help="configuration grid (default: %(default)s): the paper's"
                 " 560-point space (full), the 40-point validation slice"
                 " (smoke), the per-workload cache-geometry ladder (cache;"
                 " honours each workload's cache_memories), the 68-point"
                 " value/branch speculation grid (spec), the 24-point"
                 " list-vs-optimal static scheduling grid (sched), or the"
                 " 159 points EXPERIMENTS.md reads (report)")


def _benchmarks_from_args(args: argparse.Namespace) -> Optional[List[str]]:
    """The ``--benchmarks`` list, or None for the default set."""
    if not args.benchmarks:
        return None
    return [name.strip() for name in args.benchmarks.split(",")
            if name.strip()]


def _add_metrics_argument(command: argparse.ArgumentParser) -> None:
    """``--metrics-out``: telemetry is collected only when it is given."""
    command.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="collect counters, phase-time histograms"
                              " and cycle attribution, and write the"
                              " aggregated telemetry.json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Melvin & Patt (ISCA 1991) reproduction simulator",
    )
    parser.add_argument("--log-json", action="store_true",
                        help="emit diagnostics as structured JSON lines"
                             " on stderr (same as REPRO_LOG_JSON=1)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one configuration point")
    _add_config_arguments(run)
    run.add_argument("--trace-out", metavar="FILE", default=None,
                     help="also write the point's per-cycle pipeline"
                          " trace: one JSON event per line when FILE"
                          " ends in .jsonl, else a chrome://tracing JSON"
                          " document (a traced point neither reads nor"
                          " writes the result cache)")

    report = sub.add_parser("report", help="write EXPERIMENTS.md; exit 4"
                                           " if a paper claim does not hold")
    report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    report.add_argument("--scale", type=int, default=None)
    _add_metrics_argument(report)

    dump = sub.add_parser("dump", help="print translated assembly")
    dump.add_argument("--benchmark", required=True, choices=sorted(WORKLOADS))
    dump.add_argument("--enlarged", action="store_true")
    dump.add_argument("--dot", action="store_true",
                      help="emit a Graphviz CFG instead of assembly")
    dump.add_argument("--scale", type=int, default=None)

    schedule = sub.add_parser(
        "schedule",
        help="static schedule-quality study: per-block list/optimal/"
             "lower-bound makespans and per-loop II vs MII"
             " (see repro.optsched)",
    )
    schedule.add_argument("--benchmark", required=True,
                          choices=sorted(WORKLOADS))
    schedule.add_argument("--enlarged", action="store_true",
                          help="analyse the enlarged program (default:"
                               " the single-block translation)")
    schedule.add_argument("--issue", type=int, default=5,
                          choices=sorted(ISSUE_MODELS))
    schedule.add_argument("--memory", default="A",
                          choices=sorted(MEMORY_CONFIGS))
    schedule.add_argument("--scale", type=int, default=None)
    schedule.add_argument("--all-blocks", action="store_true",
                          help="list every block (default: only blocks"
                               " where the exact schedule beats the list"
                               " schedule)")

    compile_cmd = sub.add_parser(
        "compile", help="compile and run a Mini-C source file"
    )
    compile_cmd.add_argument("source", help="path to a Mini-C file")
    compile_cmd.add_argument("--stdin", default=None,
                             help="file whose bytes become fd 0")
    compile_cmd.add_argument("--dump-asm", action="store_true",
                             help="print translated assembly instead of running")
    compile_cmd.add_argument("--no-optimize", action="store_true")
    compile_cmd.add_argument("--simulate", metavar="DISCIPLINE",
                             choices=("static", "dynamic"), default=None,
                             help="also run a timing simulation")

    sweep = sub.add_parser(
        "sweep",
        help="run a configuration grid, by default the paper's full"
             " 560-point space, through the validation oracle"
             " (fault-tolerant and resumable; results land in the on-disk"
             " cache, failures in sweep.state.json; gating findings"
             " exit 4)",
    )
    _add_grid_arguments(sweep, default_grid="full")
    sweep.add_argument("--limit", type=int, default=None,
                       help="stop after N uncached points, counted in"
                            " benchmark-major order (for budgeting)")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run points across N worker processes, so a"
                            " crashing or wedged point cannot take the"
                            " sweep down (prepare happens once per"
                            " benchmark; workers load artifacts from the"
                            " store and results merge back to the"
                            " single-writer cache)")
    sweep.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per point attempt")
    sweep.add_argument("--retries", type=int, default=2,
                       help="extra attempts for transient point failures"
                            " (exponential backoff; default 2)")
    sweep.add_argument("--resume", action="store_true",
                       help="resume from sweep.state.json: skip points"
                            " recorded as failed, reuse all cached results")
    sweep.add_argument("--check", action="store_true",
                       help="also check the results against the grid's"
                            " golden baseline")
    sweep.add_argument("--record", action="store_true",
                       help="write the grid's golden baseline (refused"
                            " with --limit, and when the oracle finds"
                            " errors or a point fails)")
    sweep.add_argument("--baseline", default=None, metavar="FILE",
                       help="baseline path for --check and --record"
                            " (default: baselines/<grid>-<benchmarks>.json)")
    sweep.add_argument("--rel-tol", type=float, default=None,
                       metavar="FRACTION",
                       help="relative tolerance for dominance comparisons"
                            " (default 0.02)")
    _add_metrics_argument(sweep)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived simulation service: keeps prepared"
             " workloads, the result cache and (with --jobs N) a worker"
             " pool resident between submitted jobs (see the 'Service"
             " layer' section of DESIGN.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8737,
                       help="listen port (0 picks a free one; default 8737)")
    serve.add_argument("--scale", type=int, default=None,
                       help="the one input scale this daemon serves"
                            " (result-cache keys embed it)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="run points across N worker processes")
    serve.add_argument("--max-queued", type=int, default=8, metavar="N",
                       help="admission bound: queued jobs beyond this are"
                            " rejected with a typed 429 (default 8)")
    serve.add_argument("--max-job-points", type=int, default=5600,
                       metavar="N",
                       help="admission bound: largest accepted job fan-out"
                            " (default 5600 = one full 560-config space"
                            " x 10 benchmarks)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock budget per point attempt")
    serve.add_argument("--retries", type=int, default=2,
                       help="extra attempts for transient point failures")
    serve.add_argument("--validate", action="store_true",
                       help="run the validation oracle over each finished"
                            " job (per-job report in the job document)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request access logging")

    submit = sub.add_parser(
        "submit",
        help="submit one grid job to a running service daemon",
    )
    _add_grid_arguments(submit, default_grid="smoke")
    submit.add_argument("--limit", type=int, default=None,
                        help="submit only the first N points of the grid")
    submit.add_argument("--url", default="http://127.0.0.1:8737",
                        help="service base URL")
    submit.add_argument("--wait", action="store_true",
                        help="stream progress events until the job reaches"
                             " a terminal state")
    submit.add_argument("--connect-retries", type=int, default=0,
                        metavar="N",
                        help="poll the daemon's /healthz up to N times"
                             " before submitting (startup races)")
    submit.add_argument("--expect-all-cached", action="store_true",
                        help="with --wait: exit non-zero unless every"
                             " point was served from the result cache"
                             " (CI warm-path assertion)")
    submit.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry transient failures (retryable"
                             " admission rejections, 5xx, connection"
                             " drops) up to N times with capped jittered"
                             " backoff honoring Retry-After (default 0)")
    submit.add_argument("--backoff", type=float, default=0.25,
                        metavar="SECONDS",
                        help="base retry backoff; doubles per attempt,"
                             " capped at 10s (default 0.25)")

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection drill: run the smoke grid"
             " twice (fault-free, then under a seeded FaultPlan) and"
             " assert convergence -- byte-identical result cache, same"
             " terminal job states, no partial files (see DESIGN.md"
             " 'Fault injection & chaos testing')",
    )
    _add_grid_arguments(chaos, default_benchmarks="grep")
    chaos.add_argument("--mode", choices=("sweep", "service"),
                       default="sweep",
                       help="exercise the sweep harness (cold+warm"
                            " passes) or the service daemon (cold run,"
                            " crash-restart replay, warm submit)")
    chaos.add_argument("--smoke", action="store_true",
                       help="use the built-in smoke FaultPlan (>= 8 fault"
                            " sites, >= 6 fault kinds; coverage is"
                            " asserted)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="FaultPlan seed (default 7)")
    chaos.add_argument("--plan", default=None, metavar="FILE",
                       help="load a FaultPlan JSON document instead of"
                            " the built-in smoke plan")
    chaos.add_argument("--limit", type=int, default=None,
                       help="keep only the first N grid points")
    chaos.add_argument("--plan-out", default=None, metavar="FILE",
                       help="write the effective FaultPlan JSON before"
                            " running (repro artifact for CI uploads)")
    _add_metrics_argument(chaos)

    sub.add_parser("list", help="list benchmarks and configuration axes")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .harness import PointTask, SerialBackend, run_sweep
    from .harness.cache import result_key
    from .telemetry import MetricsCollector, TraceCollector

    config = _config_from_args(args)
    out = args.trace_out
    runner = SweepRunner(
        scale=args.scale, use_cache=out is None,
        collector=MetricsCollector() if out is None else TraceCollector())
    task = PointTask(args.benchmark, config,
                     result_key(args.benchmark, config, runner.scale))
    tally = run_sweep(runner, SerialBackend(runner), [task])
    if _print_failures("run", tally.failures):
        return 3
    result = tally.results[task.key]
    print(result.summary())
    print(f"  retired nodes : {result.retired_nodes}")
    print(f"  executed nodes: {result.executed_nodes}")
    print(f"  cycles        : {result.cycles}")
    print(f"  faults        : {result.faults}")
    print(f"  cache hit rate: {result.cache_hit_rate:.4f}")
    print(f"  issue util    : {result.issue_utilization:.4f}")
    print(f"  branch acc    : {result.branch_accuracy:.4f}"
          f" ({result.mispredicts} mispredicts"
          f" / {result.branch_lookups} lookups)")
    if result.config.value_predictor != "none":
        print(f"  value acc     : {result.value_accuracy:.4f}"
              f" ({result.value_confirmed} confirmed,"
              f" {result.value_squashed} squashed"
              f" / {result.value_predictions} delivered;"
              f" {result.value_replays} replays)")
    if result.config.optimal_schedule:
        # Fresh solves publish sched.* counters; a result served from
        # the cache predates this run's collector and has none.
        counters = runner.collector.counters
        blocks = counters.get("sched.blocks", 0)
        list_words = counters.get("sched.list_words", 0)
        if blocks and list_words:
            optimal_words = counters.get("sched.optimal_words", 0)
            gap = 100.0 * (list_words - optimal_words) / list_words
            print(f"  sched gap     : {gap:.2f}% static words"
                  f" ({list_words} list -> {optimal_words} optimal;"
                  f" {counters.get('sched.closed', 0)}/{blocks}"
                  f" blocks closed)")
    if result.window_samples:
        print(f"  avg window    : {result.avg_window_blocks:.2f} blocks")
    # Cycle attribution rides in ``extra`` on freshly simulated results
    # (a cache hit predates this run's collector and has none).
    buckets = {
        name[len("attr."):]: int(value)
        for name, value in sorted(result.extra.items())
        if name.startswith("attr.")
    }
    if buckets:
        total = sum(buckets.values()) or 1
        print("  cycle attribution:")
        for name, value in buckets.items():
            print(f"    {name:19s}: {value:>10d}"
                  f" ({100.0 * value / total:5.1f}%)")
    if out is not None:
        from .telemetry import write_chrome_trace, write_jsonl

        collector = runner.collector
        if out.endswith(".jsonl"):
            write_jsonl(collector, out)
        else:
            write_chrome_trace(collector, out, benchmark=args.benchmark,
                               config=str(config))
        print(f"wrote {out} ({len(collector.events)} events, "
              f"{result.cycles} cycles)")
    return 0


def _write_metrics(collector, path: str, context=None,
                   validation=None, failures=None) -> None:
    from .harness.cache import atomic_write_json
    from .stats.aggregate import telemetry_report

    document = telemetry_report(collector, context=context,
                                validation=validation, failures=failures)
    atomic_write_json(path, document, indent=2)
    print(f"wrote {path}")


def _print_failures(verb: str, failures) -> bool:
    """Name each failed point on stderr; whether there were any."""
    for failure in failures:
        print(f"{verb}: point failed: {failure.summary()}", file=sys.stderr)
    return bool(failures)


def _cmd_report(args: argparse.Namespace) -> int:
    from .harness.cache import atomic_write_text
    from .telemetry import MetricsCollector

    collector = MetricsCollector() if args.metrics_out else None
    runner = SweepRunner(scale=args.scale, collector=collector)
    text, failures, points_failed = generate_report(runner)
    if not points_failed:
        atomic_write_text(args.output, text)
        print(f"wrote {args.output}")
    if args.metrics_out:
        _write_metrics(collector, args.metrics_out, failures=[
            failure.to_dict() for failure in points_failed])
    if _print_failures("report", points_failed):
        return 3
    for failure in failures:
        print(f"report: claim does not hold: {failure}", file=sys.stderr)
    return 4 if failures else 0


def _cmd_dump(args: argparse.Namespace) -> int:
    from .program.dot import program_to_dot

    runner = SweepRunner(scale=args.scale)
    workload = runner.workload(args.benchmark)
    program = workload.enlarged if args.enlarged else workload.single
    if args.dot:
        print(program_to_dot(program, title=args.benchmark))
    else:
        print(format_program(program))
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    """Per-block list-vs-optimal gap study and per-loop II vs MII."""
    from .machine.config import ISSUE_MODELS, MEMORY_CONFIGS
    from .optsched import analyze_program

    runner = SweepRunner(scale=args.scale)
    workload = runner.workload(args.benchmark)
    program = workload.enlarged if args.enlarged else workload.single
    issue = ISSUE_MODELS[args.issue]
    memory = MEMORY_CONFIGS[args.memory]
    analysis = analyze_program(program, issue, memory)

    line = "enlarged" if args.enlarged else "single"
    print(f"{args.benchmark} ({line}) on issue {issue} / memory {memory}")
    print(f"{'block':40s} {'nodes':>5s} {'list':>5s} {'opt':>5s}"
          f" {'LB':>4s} closed")
    shown = 0
    for solution in analysis.blocks:
        if not args.all_blocks and solution.gap == 0:
            continue
        shown += 1
        sched = solution.schedule
        print(f"{sched.label:40s} {sched.node_count:>5d}"
              f" {solution.list_makespan:>5d} {solution.makespan:>5d}"
              f" {solution.lower_bound:>4d}"
              f" {'yes' if solution.closed else 'NO'}")
    hidden = len(analysis.blocks) - shown
    if hidden:
        print(f"... {hidden} block(s) where the list schedule is already"
              f" optimal (--all-blocks shows them)")
    print(f"totals: {analysis.list_words} list words ->"
          f" {analysis.optimal_words} optimal"
          f" (lower bound {analysis.lower_bound_words};"
          f" gap {analysis.gap_percent:.2f}%;"
          f" {analysis.closed_blocks}/{len(analysis.blocks)}"
          f" blocks closed)")
    if analysis.loops:
        print()
        print("innermost loops (modulo scheduling):")
        print(f"{'block':40s} {'nodes':>5s} {'ResMII':>6s} {'RecMII':>6s}"
              f" {'MII':>4s} {'II':>4s} {'list':>5s} status")
        for loop in analysis.loops:
            status = ("optimal" if loop.closed
                      else "pipelined" if loop.pipelined else "fallback")
            print(f"{loop.label:40s} {loop.node_count:>5d}"
                  f" {loop.res_mii:>6d} {loop.rec_mii:>6d} {loop.mii:>4d}"
                  f" {loop.ii:>4d} {loop.list_makespan:>5d} {status}")
    elif args.enlarged:
        print("no innermost single-block loops in this program")
    else:
        print("no innermost single-block loops (try --enlarged: block"
              " enlargement merges loop bodies into self-looping blocks)")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .interp.interpreter import run_program
    from .lang.frontend import compile_source
    from .machine.simulator import prepare_workload, simulate

    with open(args.source, encoding="utf-8") as handle:
        source = handle.read()
    program = compile_source(source, optimize=not args.no_optimize)
    if args.dump_asm:
        print(format_program(program))
        return 0
    stdin = b""
    if args.stdin:
        with open(args.stdin, "rb") as handle:
            stdin = handle.read()
    result = run_program(program, inputs={0: stdin})
    sys.stdout.write(result.output.decode("latin-1"))
    print(f"[exit {result.exit_code}; "
          f"{result.trace.retired_nodes} nodes retired]", file=sys.stderr)
    if args.simulate:
        workload = prepare_workload(
            "cli", program, {0: stdin}, {0: stdin}
        )
        config = MachineConfig(
            discipline=Discipline(args.simulate),
            issue_model=8,
            memory="A",
            branch_mode=BranchMode.ENLARGED,
            window_blocks=4,
        )
        sim = simulate(workload, config)
        print(sim.summary(), file=sys.stderr)
    return result.exit_code


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Fault-tolerant, optionally parallel sweep, checked by the oracle.

    The sweep loop is the single writer of the result cache, the
    checkpoint manifest and the telemetry document; execution backends
    (serial, or a process pool under ``--jobs N``) only produce
    ``PointOutcome`` messages.  After the loop the validation oracle
    runs over every point it settled (the loop's tally): per-result
    invariants, the dominance orders and, under ``--check``,
    golden-baseline drift.
    The engine watchdog's limit comes from ``REPRO_MAX_CYCLES``.
    ``--record`` snapshots the grid's metrics as its golden baseline --
    refused when the oracle found errors or a point failed, so a broken
    simulator cannot be enshrined as truth.

    Exit codes are deterministic: 0 on full success (or a budget-limited
    but failure-free run) with a clean oracle, 3 when the sweep
    completed but some points failed (structured ``PointFailure``
    records; summary on stderr; 3 wins over 4), 4 on gating oracle
    findings, and 1 on a fatal harness error or conflicting flags.
    """
    from .harness.backend import make_backend
    from .harness.checkpoint import SweepCheckpoint, default_checkpoint_path
    from .harness.executor import ExecutionPolicy
    from .harness.sweep import grid_tasks, run_checkpointed
    from .telemetry import MetricsCollector, ProgressLine
    from .validate import default_baseline_path, record_baseline, run_oracle

    if args.jobs < 1:
        print("fatal: --jobs must be >= 1", file=sys.stderr)
        return 1
    if args.baseline and not (args.check or args.record):
        print("fatal: --baseline names the file for --check or --record",
              file=sys.stderr)
        return 1
    if args.record and args.limit is not None:
        print("fatal: --record snapshots the whole grid; drop --limit",
              file=sys.stderr)
        return 1

    benchmarks = _benchmarks_from_args(args)
    collector = MetricsCollector() if args.metrics_out else None
    runner = SweepRunner(benchmarks=benchmarks, scale=args.scale,
                         collector=collector)
    policy = ExecutionPolicy(timeout_s=args.timeout, retries=args.retries)
    backend = make_backend(runner, policy, jobs=args.jobs)
    tasks = grid_tasks(args.grid, runner.benchmarks, runner.scale)
    total = len(tasks)

    checkpoint_path = default_checkpoint_path()
    checkpoint = None
    carried = {}
    if args.resume:
        loaded = SweepCheckpoint.load(checkpoint_path)
        if loaded is not None and loaded.compatible_with(
            runner.benchmarks, runner.scale
        ):
            checkpoint = loaded
            # Known-failed on a previous run: carry the failures forward
            # instead of burning time on deterministic re-failures (a
            # sweep without --resume re-attempts them).
            carried = dict(checkpoint.failures)
        else:
            print("resume: no compatible sweep.state.json; starting fresh",
                  file=sys.stderr)
    if checkpoint is None:
        checkpoint = SweepCheckpoint(checkpoint_path, runner.benchmarks,
                                     runner.scale)

    progress = ProgressLine(total) if sys.stderr.isatty() else None

    def show(outcome, tally) -> None:
        """Progress accounting for one settled point."""
        done = tally.resolved
        task = outcome.task
        if outcome.source == "carried":
            if progress is not None:
                progress.update(done, f"skip {task.benchmark} {task.config}")
            return
        if outcome.failure is not None:
            line = f"FAILED({outcome.failure.kind}) {task.benchmark} {task.config}"
            if progress is not None:
                progress.update(done, line)
            else:
                print(f"[{done}/{total}] {line}", file=sys.stderr)
            return
        if progress is not None:
            progress.update(done, f"{task.benchmark} {task.config}")
        elif outcome.source == "fresh" and (done % 50 == 0 or done == total):
            print(f"[{done}/{total}] {outcome.result.summary()}",
                  file=sys.stderr)

    try:
        try:
            tally = run_checkpointed(runner, backend, tasks, checkpoint,
                                     show, limit=args.limit, carried=carried)
        finally:
            if progress is not None:
                progress.finish()
    except Exception as exc:  # noqa: BLE001 - deterministic exit code 1
        print(f"fatal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    if tally.limited:
        print(f"limit reached: {tally.resolved}/{total} points in cache")
    else:
        print(f"sweep complete: {total} points ({tally.dispatched} newly"
              f" simulated, {len(tally.failures)} failed)")
    baseline = args.baseline or default_baseline_path(
        runner.benchmarks, grid=args.grid
    )
    results = list(tally.results.values())
    validate_start = time.perf_counter()
    report = run_oracle(
        results, rel_tol=args.rel_tol,
        baseline_path=baseline if args.check else None,
        scale=runner.scale,
    )
    runner.collector.observe("sweep.validate_s",
                             time.perf_counter() - validate_start)
    for line in report.summary_lines():
        print(line)
    if args.record:
        if report.ok and not tally.failures:
            record_baseline(results, runner.scale, baseline)
            print(f"recorded golden baseline: {baseline}"
                  f" ({len(results)} points)")
        else:
            print("refusing to record a golden baseline from a run the"
                  " oracle rejected or with failed points", file=sys.stderr)
    if args.metrics_out:
        _write_metrics(
            collector, args.metrics_out,
            context={"backend": backend.name, "jobs": args.jobs},
            validation=report.to_dict(),
            failures=[failure.to_dict() for failure in tally.failures],
        )
    if tally.failures:
        kinds = sorted({failure.kind for failure in tally.failures})
        print(f"sweep: {len(tally.failures)} point(s) failed"
              f" ({', '.join(kinds)}); details in {checkpoint_path}",
              file=sys.stderr)
        return 3
    if not tally.limited:
        checkpoint.remove()
    return 0 if report.ok else 4


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service daemon until interrupted.

    One scheduler thread owns the runner (cache + collector + backend);
    the HTTP server fans requests onto its thread-safe surface.  The
    ready line on stdout is machine-parsable ("listening on URL") so
    wrappers and CI can wait for it.
    """
    from .harness.executor import ExecutionPolicy
    from .service import JobScheduler, make_server
    from .telemetry import MetricsCollector

    if args.jobs < 1:
        print("fatal: --jobs must be >= 1", file=sys.stderr)
        return 1
    collector = MetricsCollector()
    runner = SweepRunner(scale=args.scale, collector=collector)
    policy = ExecutionPolicy(timeout_s=args.timeout, retries=args.retries)
    scheduler = JobScheduler(
        runner, policy=policy, jobs=args.jobs,
        max_queued_jobs=args.max_queued,
        max_job_points=args.max_job_points,
        validate=args.validate,
    )
    try:
        server = make_server(scheduler, host=args.host, port=args.port,
                             quiet=args.quiet)
    except OSError as exc:
        print(f"fatal: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    scheduler.start()
    print(f"repro service listening on http://{host}:{port}"
          f" (scale {runner.scale}, backend {scheduler.backend.name},"
          f" max {args.max_queued} queued job(s))", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit one grid job; with ``--wait``, stream progress to stderr."""
    from .service import ServiceClient

    with ServiceClient(args.url, retries=args.retries,
                       backoff_s=args.backoff) as client:
        return _submit(client, args)


def _submit(client: Any, args: argparse.Namespace) -> int:
    from .service import AdmissionRejected, JobFailed, ServiceError

    spec = {"grid": args.grid}
    benchmarks = _benchmarks_from_args(args)
    if benchmarks is not None:
        spec["benchmarks"] = benchmarks
    if args.scale is not None:
        spec["scale"] = args.scale
    if args.limit is not None:
        spec["limit"] = args.limit
    try:
        if args.connect_retries:
            client.wait_ready(attempts=args.connect_retries)
        job = client.submit(spec)
    except AdmissionRejected as exc:
        print(f"rejected ({exc.reason}): {exc}", file=sys.stderr)
        return 5
    except ServiceError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    job_id = job["job_id"]
    print(f"accepted {job_id}: {job['points']['total']} point(s),"
          f" state {job['state']}")
    if not args.wait:
        return 0

    def show(event: dict) -> None:
        kind = event.get("kind", "")
        if kind == "point":
            print(f"  [{event['resolved']}/{event['total']}]"
                  f" {event['status']:6s} {event['benchmark']}"
                  f" {event['config']}", file=sys.stderr)
        elif kind.startswith("job."):
            print(f"  {kind}", file=sys.stderr)

    try:
        final = client.wait(job_id, on_event=show)
    except JobFailed as exc:
        points = exc.job.get("points", {})
        print(f"job {job_id} {exc.job.get('state')}:"
              f" {points.get('failed', '?')} failed point(s)"
              f" ({exc.job.get('error')})", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1
    points = final["points"]
    wall = (final["finished_s"] - final["started_s"]
            if final.get("finished_s") and final.get("started_s") else 0.0)
    print(f"job {job_id} done: {points['total']} point(s)"
          f" ({points['cached']} cached, {points['fresh']} simulated)"
          f" in {wall:.2f}s")
    validation = final.get("validation")
    if validation is not None:
        severities = validation.get("severities", {})
        print(f"validation: {validation.get('checked_results', 0)} result(s)"
              f" checked, {severities.get('error', 0)} error(s),"
              f" {severities.get('warning', 0)} warning(s)")
        if severities.get("error"):
            return 4
    if args.expect_all_cached and points["cached"] != points["total"]:
        print(f"expected all {points['total']} point(s) cached, but"
              f" {points['fresh']} were re-simulated and"
              f" {points['failed']} failed", file=sys.stderr)
        return 3
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection drill: two arms, then the convergence contract.

    Exit codes: 0 when the faulted arm converged with the fault-free
    one (and, under ``--smoke``, the plan's coverage floor held), 3 on
    divergence or missed coverage (problems on stderr), 1 on a fatal
    harness error or an unloadable plan.
    """
    import json

    from .chaos.plan import FaultPlan, PlanError, smoke_plan
    from .telemetry import NULL_COLLECTOR, MetricsCollector

    if args.plan is not None and args.smoke:
        print("fatal: --plan and --smoke are mutually exclusive",
              file=sys.stderr)
        return 1
    if args.plan is not None:
        try:
            with open(args.plan, "r", encoding="utf-8") as handle:
                plan = FaultPlan.from_json(handle.read())
        except (OSError, ValueError, PlanError) as exc:
            print(f"fatal: cannot load fault plan {args.plan}: {exc}",
                  file=sys.stderr)
            return 1
    else:
        plan = smoke_plan(args.seed, args.mode)
    if args.plan_out:
        # Written before the run so a wedged or killed drill still
        # leaves the plan behind for reproduction.
        with open(args.plan_out, "w", encoding="utf-8") as handle:
            handle.write(plan.to_json())
        print(f"wrote {args.plan_out}")

    benchmarks = _benchmarks_from_args(args) or ["grep"]
    collector = MetricsCollector() if args.metrics_out else NULL_COLLECTOR

    from .chaos.harness import run_chaos

    try:
        report = run_chaos(
            args.mode, plan, benchmarks=tuple(benchmarks),
            scale=args.scale if args.scale is not None else 1,
            limit=args.limit, collector=collector,
        )
    except Exception as exc:  # noqa: BLE001 - deterministic exit code 1
        print(f"fatal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(json.dumps(report.to_dict(), indent=2))
    if args.metrics_out:
        _write_metrics(collector, args.metrics_out,
                       context={"mode": args.mode, "plan": plan.name,
                                "seed": plan.seed})

    problems = list(report.problems)
    if args.smoke:
        # The smoke drill's value is breadth: a plan edit that silently
        # drops coverage must fail CI, not shrink the drill.
        if len(report.sites) < 8:
            problems.append(
                f"smoke coverage: only {len(report.sites)} fault sites"
                " injected (need >= 8)"
            )
        if len(report.kinds) < 6:
            problems.append(
                f"smoke coverage: only {len(report.kinds)} fault kinds"
                " injected (need >= 6)"
            )
    if problems:
        for problem in problems:
            print(f"chaos: {problem}", file=sys.stderr)
        return 3
    print(f"chaos: converged ({sum(report.injected.values())} faults"
          f" injected across {len(report.sites)} sites,"
          f" {sum(report.recovered.values())} recoveries)")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("benchmarks:", ", ".join(sorted(WORKLOADS)))
    print("issue models:")
    for index, model in ISSUE_MODELS.items():
        print(f"  {index}: {model}")
    print("memory configs:")
    for letter, memory in MEMORY_CONFIGS.items():
        print(f"  {letter}: {memory}")
    print(f"window sizes: {WINDOW_SIZES}")
    print("branch modes:", ", ".join(mode.value for mode in BranchMode))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.log_json:
        from .telemetry.logging import configure

        configure(True)
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "dump": _cmd_dump,
        "schedule": _cmd_schedule,
        "compile": _cmd_compile,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "chaos": _cmd_chaos,
        "list": _cmd_list,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
