#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric
with ``--trace 1``).  ``--record`` re-records ``expected.json``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.

    The daemon's HTTP and scheduler threads hand the interpreter lock
    back and forth on every job; when the kernel spreads them over CPUs
    the hand-offs slow down by an amount that changes from run to run
    with where the threads land (job latency moved by half between runs
    on a 2-CPU host).  One CPU for the client and the daemon keeps the
    hand-offs alike on every run.  Children inherit the mask.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def untraced_cold(workload: Any, args: argparse.Namespace, work: str,
                  expected: Any) -> Tuple[Dict[str, float], int, List[str]]:
    from pbench import cold
    from pbench.metrics import percentile

    setup_times, artifact_dir = cold.setup(workload.programs, work)
    outcomes = cold.measure(workload.ordered_jobs(args.seed), artifact_dir,
                            work, expected, args.seconds, args.limit)
    walls = [o.wall_s for o in outcomes]
    attempted = sum(o.attempted for o in outcomes)
    print(f"{len(outcomes)} sweep job(s), {attempted} point(s),"
          f" {sum(walls):.3f} s")
    return {
        "setup_s": statistics.median(setup_times),
        "points_per_s": attempted / sum(walls),
        "job_ms_p50": percentile(walls, 0.5) * 1e3,
        "job_ms_p90": percentile(walls, 0.9) * 1e3,
        "peak_rss_mb": max(o.peak_rss_mb for o in outcomes),
    }, attempted, [f for o in outcomes for f in o.failed]


def untraced_service(workload: Any, args: argparse.Namespace, work: str,
                     expected: Any) -> Tuple[Dict[str, float], int, List[str]]:
    from pbench import warm
    from pbench.metrics import blocks, percentile

    [(_, programs)] = workload.ordered_jobs(args.seed)
    spec = warm.job_spec(programs, args.limit)
    runs = warm.sessions(spec, work, expected, args.seconds)
    parts = [part for run in runs
             for part in blocks([s.latency_s for s in run.timed],
                                warm.BLOCK_JOBS)]
    samples = [s for run in runs for s in run.warmup + run.timed]
    n_points = len(warm.spec_points(spec, expected))
    print(f"{len(runs)} session(s) of {len(runs[0].timed)} timed job(s)"
          f" after {warm.WARMUP_JOBS} warm-up job(s), {n_points} point(s)"
          f" per job; medians over {len(parts)} block(s)")
    return {
        "setup_s": statistics.median(run.setup_s for run in runs),
        "points_per_s": statistics.median(
            n_points * len(part) / sum(part) for part in parts),
        "job_ms_p50": statistics.median(
            percentile(part, 0.5) for part in parts) * 1e3,
        "job_ms_p90": statistics.median(
            percentile(part, 0.9) for part in parts) * 1e3,
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in runs),
    }, len(samples), [s.failure for s in samples if s.failure]


def traced(workload: Any, args: argparse.Namespace, work: str,
           expected: Any) -> Tuple[Dict[str, float], int, List[str]]:
    from pbench import host, traced as tr
    from pbench.spans import Tracer

    tracer = Tracer(workload.name)
    calib = host.calib_ns()
    if workload.kind == "cold":
        info = tr.traced_cold(tracer, workload, args.seed, work, expected,
                              args.limit)
    else:
        info = tr.traced_service(tracer, workload, args.seed, work,
                                 args.seconds, expected, args.limit)
    metrics = tr.layer_metrics(tracer, info, calib)
    for note in info["notes"]:
        print(f"replay: {note}")
    spans_path = os.path.join(os.path.dirname(work),
                              f"spans-{workload.name}-seed{args.seed}.json")
    tracer.write(spans_path, {"host": host.host_info(),
                              "workload": workload.name, "seed": args.seed,
                              "metrics": metrics})
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    print(f"traced total {metrics['trace.traced_s']:.3f} s beside untraced"
          f" wall {metrics['trace.untraced_s']:.3f} s")
    return metrics, info["attempted"], info["failed"]


def _terminate(signum: int, frame: Any) -> None:
    # Unwind like Ctrl-C so every child process is stopped on the way out.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="smallest size: at most N points per sweep"
                             " or job (for tests)")
    parser.add_argument("--workdir", default=".perfbench_work",
                        help="scratch directory inside the checkout")
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro source tree under {ROOT}/src;"
              " run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from pbench import host
    from pbench.cold import fresh_dir
    from pbench.gate import Expected
    from pbench.metrics import END_TO_END, PER_LAYER
    from pbench.workloads import WORKLOADS

    if args.record:
        from pbench.record import record

        return record(fresh_dir(os.path.join(args.workdir, "record")), ROOT)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected = Expected.load()
    work = fresh_dir(os.path.abspath(os.path.join(args.workdir,
                                                  workload.name)))
    if workload.kind == "service":
        pin_to_one_cpu()
    print(f"host: {json.dumps(host.host_info(), sort_keys=True)}")
    jobs = workload.ordered_jobs(args.seed)
    print(f"workload {workload.name} seed {args.seed}: "
          + "; ".join(f"{grid} over {','.join(programs)}"
                      for grid, programs in jobs))
    if args.trace:
        metrics, attempted, failed = traced(workload, args, work, expected)
        units = PER_LAYER
    elif workload.kind == "cold":
        metrics, attempted, failed = untraced_cold(workload, args, work,
                                                   expected)
        units = END_TO_END
    else:
        metrics, attempted, failed = untraced_service(workload, args, work,
                                                      expected)
        units = END_TO_END
    for failure in failed[:20]:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failed and attempted > 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
