"""The traced run: each layer's public functions, called from here.

The program is not instrumented.  This module calls each layer the way
the program does, in the same order, with one span per call: the
prepare stages, ``ArtifactStore.load``, template building and list
scheduling, ``simulate`` per point (templates and schedules already
built), ``ResultCache.get``/``put``, the oracle, and the service client.
The same work also runs untraced, through the same entry points as the
untraced workload; ``harness.sweep.self_s`` is the untraced wall time
minus the traced layer total, i.e. what the layers do not explain:
process start, the CLI, the sweep loop and checkpoint, less the cost of
tracing itself.
"""

from __future__ import annotations

import os
import statistics
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import cold, replay, warm
from .gate import Expected
from .spans import Tracer, layer_totals, self_times
from .workloads import Job

#: Engine layers reported in ns per trace node.
ENGINE_LAYERS = (
    "machine.static_engine",
    "machine.dynamic",
    "machine.dynamic.vp-last",
    "machine.dynamic.vp-stride",
    "machine.dynamic.vp-context",
    "machine.dynamic.vp-perfect",
    "machine.dynamic.bp-gshare",
    "machine.dynamic.bp-perceptron",
)
CACHED_MEMORIES = ("D", "H", "E", "I")
BRANCH_PREDICTORS = ("twobit", "gshare", "perceptron")
VALUE_PREDICTORS = ("last", "stride", "context", "perfect")
#: Per-job replicas of the daemon's cache reads and oracle.
SERVICE_REPLICAS = 20


def engine_layer(config: Any) -> str:
    if config.discipline.value == "static":
        return "machine.static_engine"
    if config.value_predictor != "none":
        return f"machine.dynamic.vp-{config.value_predictor}"
    if config.predictor != "twobit":
        return f"machine.dynamic.bp-{config.predictor}"
    return "machine.dynamic"


def trace_nodes(trace: Any) -> int:
    return trace.retired_nodes + trace.discarded_nodes


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# ----------------------------------------------------------------------
def traced_prepare(tracer: Tracer, name: str, store: Any) -> None:
    """``prepare_workload``'s stages, one span each, then the save."""
    from repro.enlarge.builder import apply_plan
    from repro.enlarge.plan import EnlargeConfig, plan_enlargement
    from repro.interp.interpreter import run_program
    from repro.machine.simulator import PreparedWorkload, WorkloadMismatch
    from repro.profiles.profile import annotate_static_hints, build_profile
    from repro.workloads import WORKLOADS

    workload = WORKLOADS[name]
    train = workload.make_inputs("train", 1)
    evals = workload.make_inputs("eval", 1)

    def interp(span_name: str, program: Any, inputs: Any) -> Any:
        with tracer.span(span_name, name) as span:
            run = run_program(program, inputs=inputs)
            span["nodes"] = run.executed_nodes
        return run

    with tracer.span("prepare", name):
        with tracer.span("lang.compile", name):
            program = workload.compile()
        train_run = interp("interp.train", program, train)
        with tracer.span("profiles", name):
            profile = build_profile(train_run.trace)
            single = annotate_static_hints(program, profile)
        with tracer.span("enlarge", name):
            plan = plan_enlargement(single, profile, EnlargeConfig())
            enlarged = apply_plan(single, plan)
        enlarged_train = interp("interp.train", enlarged, train)
        with tracer.span("profiles", name):
            enlarged = annotate_static_hints(
                enlarged, build_profile(enlarged_train.trace))
        single_run = interp("interp.eval", single, evals)
        enlarged_run = interp("interp.eval", enlarged, evals)
        if (single_run.output != enlarged_run.output
                or single_run.exit_code != enlarged_run.exit_code):
            raise WorkloadMismatch(f"{name}: enlarged program diverged")
        prepared = PreparedWorkload(name, single, enlarged,
                                    single_run.trace, enlarged_run.trace)
        with tracer.span("harness.artifacts.save", name):
            store.save(workload, 1, prepared)


def traced_job(tracer: Tracer, grid: str, programs: Sequence[str],
               store: Any, job_dir: str, expected: Expected,
               limit: Optional[int]) -> Tuple[int, List[str], Dict[str, Any]]:
    """One sweep job's layer calls, in the order the sweep makes them
    (program by program here; a multi-program smoke sweep interleaves
    its programs point by point).

    Returns the points attempted, the failed ones, and the loaded
    workloads (for the stream replays).
    """
    from repro.harness.cache import ResultCache
    from repro.machine.simulator import simulate
    from repro.workloads import WORKLOADS

    points = [(program, pid, config) for program in programs
              for pid, config in expected.job_points(grid, program)][:limit]
    cache = ResultCache(os.path.join(cold.fresh_dir(job_dir), "results.json"))
    loaded: Dict[str, Any] = {}
    failed = []
    with tracer.span("job", ",".join(programs), grid) as job_span:
        built = set()
        schedules = set()
        for program, pid, config in points:
            prepared = loaded.get(program)
            if prepared is None:
                with tracer.span("harness.artifacts.load", program):
                    prepared = loaded[program] = store.load(WORKLOADS[program], 1)
            label = str(config)
            with tracer.span("harness.cache.get", program, label) as span:
                span["hit"] = cache.get(program, config, 1) is not None
            templates = (program, config.branch_mode.value == "single")
            if templates not in built:
                with tracer.span("machine.templates", program, label):
                    prepared.templates_for(config.branch_mode)
                built.add(templates)
            if config.discipline.value == "static":
                with tracer.span("sched.list", program, label) as span:
                    schedule = id(prepared.schedules_for(config))
                span["built"] = schedule not in schedules
                schedules.add(schedule)
            try:
                with tracer.span(engine_layer(config), program,
                                 label) as span:
                    result = simulate(prepared, config)
                    span["nodes"] = trace_nodes(
                        prepared.trace_for(config.branch_mode))
                    span["executed"] = result.executed_nodes
                    span["retired"] = result.retired_nodes
            except Exception as exc:  # noqa: BLE001 - a raising point fails
                failed.append(f"{pid}: raised {type(exc).__name__}: {exc}")
                continue
            with tracer.span("harness.cache.put", program, label):
                cache.put(result, 1)
            wrong = expected.mismatches(pid, result)
            if wrong:
                failed.append(f"{pid}: {','.join(wrong)}")
        job_span["cache_kb"] = (os.path.getsize(cache.path) / 1024.0
                                if os.path.exists(cache.path) else 0.0)
    return len(points), failed, loaded


#: Each stream is replayed this many times; the median time is kept.
REPLAY_REPEATS = 3

#: A dynamic point's counters as a replay's (attempts, useful outcomes).
ENGINE_COUNTERS = {
    "machine.cache": lambda c: (c["cache_accesses"],
                                c["cache_accesses"] - c["cache_misses"]),
    "machine.predictor": lambda c: (c["branch_lookups"],
                                    c["branch_lookups"] - c["mispredicts"]),
    "predict": lambda c: (c["value_predictions"], c["value_confirmed"]),
}


class Plan(NamedTuple):
    """One stream replay: which layer, over which trace, of what kind."""

    layer: str
    mode: Any
    build: Callable[[Any, Dict[str, Any]], List[Any]]
    run: Callable[[List[Any], str], replay.Replay]
    kind: str
    #: whether a point's configuration drives this stream
    drives: Callable[[Any], bool]


def replay_plans(configs: Sequence[Any]) -> List[Plan]:
    """One replay per memory letter, branch predictor and value
    predictor that one program's points use."""
    plans = []
    for mode in sorted({c.branch_mode for c in configs}, key=lambda m: m.value):
        if mode.value == "perfect":
            continue  # perfect branches consult no predictor
        used = [c for c in configs if c.branch_mode is mode]
        for letter in sorted({c.memory for c in used} & set(CACHED_MEMORIES)):
            plans.append(Plan(f"machine.cache.{letter}", mode,
                              replay.memory_stream, replay.replay_memory,
                              letter,
                              lambda c, m=mode, x=letter: (c.branch_mode is m
                                                           and c.memory == x)))
        for kind in sorted({c.predictor for c in used}):
            plans.append(Plan(f"machine.predictor.{kind}", mode,
                              replay.branch_stream, replay.replay_branches,
                              kind,
                              lambda c, m=mode, k=kind: (c.branch_mode is m
                                                         and c.predictor == k)))
    for kind in sorted({c.value_predictor for c in configs} - {"none"}):
        mode = next(c.branch_mode for c in configs if c.value_predictor == kind)
        plans.append(Plan(f"predict.{kind}", mode, replay.value_stream,
                          replay.replay_values, kind,
                          lambda c, k=kind: c.value_predictor == k))
    return plans


def stream_replays(tracer: Tracer, expected: Expected, jobs: Sequence[Job],
                   loaded: Dict[str, Any]) -> List[str]:
    """Replay each stream the workload's points drive; returns notes on
    replays whose counters disagree with a recorded dynamic point."""
    notes: List[str] = []
    for program, prepared in loaded.items():
        points = [(pid, config) for grid, programs in jobs
                  if program in programs
                  for pid, config in expected.job_points(grid, program)]
        streams: Dict[Tuple[Any, Any], List[Any]] = {}
        for plan in replay_plans([config for _, config in points]):
            key = (plan.build, plan.mode)
            if key not in streams:
                streams[key] = plan.build(prepared.trace_for(plan.mode),
                                          prepared.templates_for(plan.mode))
            with tracer.span(plan.layer, program, plan.mode.value) as span:
                runs = sorted((plan.run(streams[key], plan.kind)
                               for _ in range(REPLAY_REPEATS)),
                              key=lambda run: run.seconds)
                result = runs[len(runs) // 2]
                span.update(calls=result.calls, useful=result.useful,
                            attempts=result.attempts, layer_s=result.seconds)
            engine = next((expected.points[pid]["counters"]
                           for pid, config in points
                           if config.discipline.value == "dynamic"
                           and plan.drives(config)), None)
            if engine is None:
                continue
            want = ENGINE_COUNTERS[plan.layer.rsplit(".", 1)[0]](engine)
            if (result.attempts, result.useful) != want:
                notes.append(f"{plan.layer} on {program}/{plan.mode.value}:"
                             f" replay {(result.attempts, result.useful)}"
                             f" != engine {want}")
    return notes


# ----------------------------------------------------------------------
def traced_cold(tracer: Tracer, workload: Any, seed: int, work: str,
                expected: Expected, limit: Optional[int]) -> Dict[str, Any]:
    from repro.harness.artifacts import ArtifactStore

    artifact_dir = cold.fresh_dir(os.path.join(work, "artifacts"))
    store = ArtifactStore(root=artifact_dir)
    with tracer.span("setup"):
        for name in workload.programs:
            traced_prepare(tracer, name, store)
    jobs = workload.ordered_jobs(seed)
    untraced = []
    attempted = 0
    failed: List[str] = []
    loaded: Dict[str, Any] = {}
    for grid, programs in jobs:
        # Each job runs untraced, then traced, back to back, so a drift
        # in host speed moves both sides of harness.sweep.self_s alike.
        name = cold.job_name(grid, programs)
        outcome = cold.sweep_job(grid, programs, artifact_dir,
                                 os.path.join(work, "untraced", name),
                                 expected, limit)
        untraced.append(outcome)
        n, bad, job_loaded = traced_job(
            tracer, grid, programs, store,
            os.path.join(work, "traced", name), expected, limit)
        attempted += outcome.attempted + n
        failed += outcome.failed + bad
        loaded.update(job_loaded)
    with tracer.span("replays"):
        notes = stream_replays(tracer, expected, jobs, loaded)
    return {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "untraced_s": sum(o.wall_s for o in untraced),
        "artifact_dir": artifact_dir,
        "cache_kb": statistics.mean(span["cache_kb"] for span in tracer.spans
                                    if span["name"] == "job"),
    }


def traced_service(tracer: Tracer, workload: Any, seed: int, work: str,
                   seconds: float, expected: Expected,
                   limit: Optional[int]) -> Dict[str, Any]:
    from repro.harness.artifacts import ArtifactStore
    from repro.harness.cache import ResultCache
    from repro.service.jobs import JOURNAL_BASENAME
    from repro.validate import check_result, run_oracle

    [(_, programs)] = workload.ordered_jobs(seed)
    spec = warm.job_spec(programs, limit)
    points = warm.spec_points(spec, expected)
    rep_dir = os.path.join(work, "service")
    artifact_dir = cold.fresh_dir(os.path.join(rep_dir, "artifacts"))
    store = ArtifactStore(root=artifact_dir)
    with tracer.span("setup"):
        for name in programs:
            traced_prepare(tracer, name, store)
    daemon, url = warm.start(spec, rep_dir, artifact_dir=artifact_dir)
    cache_dir = os.path.join(rep_dir, "cache")
    try:
        warm.run_jobs(url, spec, expected, len(points),
                      count=warm.WARMUP_JOBS)
        untraced = warm.run_jobs(url, spec, expected, len(points),
                                 count=warm.SESSION_JOBS, seconds=seconds)
        traced = warm.run_jobs(url, spec, expected, len(points),
                               count=len(untraced), span=tracer.span)
    finally:
        daemon.stop()
    finals = [s.final for s in traced if s.final is not None]
    cached = sum(f["points"]["cached"] for f in finals)
    total = sum(f["points"]["total"] for f in finals)
    errors = sum(f.get("validation", {}).get("severities", {}).get("error", 0)
                 for f in finals)
    journal = os.path.join(cache_dir, JOURNAL_BASENAME)
    journal_bytes = os.path.getsize(journal) / (
        warm.WARMUP_JOBS + len(untraced) + len(traced))

    # The daemon's per-job layer work, replicated in-process: a cache
    # read per point, then the per-job oracle over the job's results.
    cache = ResultCache(os.path.join(cache_dir, "results.json"))
    cache.get(points[0][0], points[0][2], 1)  # loads the file, as job 1 did
    for _ in range(min(SERVICE_REPLICAS, len(untraced))):
        with tracer.span("daemon.job"):
            results = []
            for program, _, config in points:
                with tracer.span("harness.cache.get", program, str(config)):
                    results.append(cache.get(program, config, 1))
            for result in results:
                with tracer.span("validate.check", result.benchmark,
                                 str(result.config)):
                    check_result(result)
            with tracer.span("validate.oracle"):
                run_oracle(results, scale=1)
    return {
        "attempted": len(untraced) + len(traced),
        "failed": [s.failure for s in untraced + traced if s.failure],
        "notes": [],
        "untraced_s": sum(s.latency_s for s in untraced),
        "artifact_dir": artifact_dir,
        "cache_kb": os.path.getsize(os.path.join(cache_dir, "results.json"))
        / 1024.0,
        "hit_ratio": cached / total if total else 0.0,
        "validate_errors": errors,
        "journal_bytes_per_job": journal_bytes,
    }


# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, info: Dict[str, Any],
                  calib_ns: float) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload leaves idle reads 0."""
    spans = tracer.spans
    totals = layer_totals(spans)

    def seconds(name: str) -> float:
        return totals.get(name, (0.0, 0))[0]

    def count(name: str) -> int:
        return totals.get(name, (0.0, 0))[1]

    def summed(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: Dict[str, float] = {"host.calib_ns": calib_ns}
    m["lang.compile_ms"] = seconds("lang.compile") * 1e3
    m["interp.train_s"] = seconds("interp.train")
    m["interp.eval_s"] = seconds("interp.eval")
    m["interp.ns_per_node"] = ratio(
        (m["interp.train_s"] + m["interp.eval_s"]) * 1e9,
        summed("interp.train", "nodes") + summed("interp.eval", "nodes"))
    m["interp.ns_per_node.norm"] = ratio(m["interp.ns_per_node"], calib_ns)
    m["profiles.ms"] = seconds("profiles") * 1e3
    m["enlarge.ms"] = seconds("enlarge") * 1e3
    m["harness.artifacts.save_ms"] = seconds("harness.artifacts.save") * 1e3
    m["harness.artifacts.load_ms"] = seconds("harness.artifacts.load") * 1e3
    m["harness.artifacts.mb"] = dir_bytes(info["artifact_dir"]) / 2**20
    m["machine.templates.ms"] = seconds("machine.templates") * 1e3
    m["sched.list_ms"] = seconds("sched.list") * 1e3
    m["sched.schedules"] = sum(1 for s in spans
                               if s["name"] == "sched.list" and s["built"])
    for layer in ENGINE_LAYERS:
        ns = ratio(seconds(layer) * 1e9, summed(layer, "nodes"))
        m[f"{layer}.ns_per_node"] = ns
        m[f"{layer}.ns_per_node.norm"] = ratio(ns, calib_ns)
    m["machine.static_engine.points"] = count("machine.static_engine")
    dynamic = [layer for layer in ENGINE_LAYERS if ".dynamic" in layer]
    m["machine.dynamic.points"] = sum(count(layer) for layer in dynamic)
    m["machine.dynamic.executed_per_retired"] = ratio(
        sum(summed(layer, "executed") for layer in dynamic),
        sum(summed(layer, "retired") for layer in dynamic))
    for prefix, kinds, unit in (
        ("machine.cache", CACHED_MEMORIES, ("accesses", "ns_per_access")),
        ("machine.predictor", BRANCH_PREDICTORS, ("branches", "ns_per_branch")),
        ("predict", VALUE_PREDICTORS, ("loads", "ns_per_load")),
    ):
        for kind in kinds:
            name = f"{prefix}.{kind}"
            calls = summed(name, "calls")
            m[f"{name}.{unit[0]}"] = calls
            m[f"{name}.{unit[1]}"] = ratio(summed(name, "layer_s") * 1e9,
                                           calls)
            useful = ratio(summed(name, "useful"), summed(name, "attempts"))
            if prefix == "machine.cache":
                m[f"{name}.miss_ratio"] = 1.0 - useful if calls else 0.0
            elif prefix == "machine.predictor":
                m[f"{name}.accuracy"] = useful
            else:
                m[f"{name}.confirm_ratio"] = useful
    gets = [s for s in spans if s["name"] == "harness.cache.get"]
    m["harness.cache.put_ms"] = ratio(seconds("harness.cache.put") * 1e3,
                                      count("harness.cache.put"))
    m["harness.cache.get_us"] = ratio(seconds("harness.cache.get") * 1e6,
                                      len(gets))
    m["harness.cache.kb"] = info["cache_kb"]
    m["harness.cache.hit_ratio"] = info.get(
        "hit_ratio", ratio(sum(1 for s in gets if s.get("hit")), len(gets)))
    m["validate.check_us"] = ratio(seconds("validate.check") * 1e6,
                                   count("validate.check"))
    m["validate.oracle_ms"] = ratio(seconds("validate.oracle") * 1e3,
                                    count("validate.oracle"))
    m["validate.errors"] = info.get("validate_errors", 0)
    jobs = count("service.job")
    for part in ("submit", "wait", "fetch"):
        m[f"service.{part}_ms"] = ratio(seconds(f"service.{part}") * 1e3, jobs)
    m["service.journal_bytes_per_job"] = info.get("journal_bytes_per_job", 0.0)
    own = self_times(spans)
    traced = sum(
        (span["end"] - span["start"]) - own[span["id"]]
        for span in spans if span["name"] in ("job", "service.job")
    )
    m["trace.traced_s"] = traced
    m["trace.untraced_s"] = info["untraced_s"]
    m["harness.sweep.self_s"] = info["untraced_s"] - traced
    return m
