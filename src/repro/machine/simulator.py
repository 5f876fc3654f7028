"""Simulation facade: prepare a workload once, simulate many configs.

The expensive work -- compiling, profiling on training input, building the
enlarged program, and the functional (trace-collecting) runs on the
evaluation input -- happens once per workload in :func:`prepare_workload`;
each call to :func:`simulate` then replays the appropriate trace on one
machine configuration.

This mirrors the paper's flow: ``tld`` (translate + enlarge, profile
driven) runs per program, then ``sim`` runs per configuration, with the
profiling and evaluation runs using *different* input data "to prevent the
branch data from being overly biased".
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..enlarge.builder import apply_plan
from ..enlarge.plan import EnlargeConfig, plan_enlargement
from ..interp.interpreter import run_program
from ..interp.trace import Trace
from ..profiles.profile import annotate_static_hints, build_profile
from ..program.program import Program
from ..sched.list_scheduler import ScheduledBlock, schedule_program
from ..stats.results import SimResult
from ..telemetry.collector import Collector, NULL_COLLECTOR
from .config import BranchMode, Discipline, MachineConfig
from .dynamic import DynamicEngine
from .static_engine import StaticEngine
from .streams import TraceStreams
from .templates import BlockTemplate, build_templates


class WorkloadMismatch(Exception):
    """Enlarged program output differed from the original (a build bug)."""


class PreparedWorkload:
    """A benchmark compiled, enlarged and functionally executed."""

    def __init__(self, name: str, single: Program, enlarged: Program,
                 single_trace: Trace, enlarged_trace: Trace):
        self.name = name
        self.single = single
        self.enlarged = enlarged
        self.single_trace = single_trace
        self.enlarged_trace = enlarged_trace
        self._templates_single: Optional[Dict[str, BlockTemplate]] = None
        self._templates_enlarged: Optional[Dict[str, BlockTemplate]] = None
        self._schedule_cache: Dict[tuple, Dict[str, ScheduledBlock]] = {}
        self._streams: Dict[bool, TraceStreams] = {}

    # ------------------------------------------------------------------
    @property
    def templates_single(self) -> Dict[str, BlockTemplate]:
        """Issue templates for the single-block program (built lazily).

        Laziness matters to the parallel sweep: the parent process
        materializes every benchmark's artifacts without ever
        simulating, so it must not pay template construction for
        programs only its pool workers will run.
        """
        if self._templates_single is None:
            self._templates_single = build_templates(self.single)
        return self._templates_single

    @property
    def templates_enlarged(self) -> Dict[str, BlockTemplate]:
        if self._templates_enlarged is None:
            self._templates_enlarged = build_templates(self.enlarged)
        return self._templates_enlarged

    def program_for(self, mode: BranchMode) -> Program:
        """Which translated program a branch-handling mode runs."""
        return self.single if mode is BranchMode.SINGLE else self.enlarged

    def trace_for(self, mode: BranchMode) -> Trace:
        return (
            self.single_trace if mode is BranchMode.SINGLE else self.enlarged_trace
        )

    def templates_for(self, mode: BranchMode) -> Dict[str, BlockTemplate]:
        return (
            self.templates_single
            if mode is BranchMode.SINGLE
            else self.templates_enlarged
        )

    def streams_for(self, mode: BranchMode) -> TraceStreams:
        """The memo of one translated program's trace streams.

        Built empty on first use; each stream inside it is computed at
        the first simulated point that needs it, never while artifacts
        are prepared or loaded.
        """
        single = mode is BranchMode.SINGLE
        streams = self._streams.get(single)
        if streams is None:
            streams = TraceStreams(self.templates_for(mode),
                                   self.trace_for(mode))
            self._streams[single] = streams
        return streams

    def schedules_for(self, config: MachineConfig,
                      collector: Collector = NULL_COLLECTOR,
                      ) -> Dict[str, ScheduledBlock]:
        """Schedule the chosen program for a static configuration.

        The greedy list scheduler by default; the exact solver (with its
        on-disk schedule memo) when the configuration carries
        ``optimal_schedule=True``.
        """
        key = (config.branch_mode is BranchMode.SINGLE, config.issue_model,
               config.memory_config.hit_cycles, config.optimal_schedule)
        cached = self._schedule_cache.get(key)
        if cached is None:
            if config.optimal_schedule:
                # Imported lazily: optsched depends on this module's
                # sibling config types.
                from ..optsched import optimal_schedule_program

                cached = optimal_schedule_program(
                    self.program_for(config.branch_mode),
                    config.issue,
                    config.memory_config,
                    collector=collector,
                )
            else:
                cached = schedule_program(
                    self.program_for(config.branch_mode),
                    config.issue,
                    config.memory_config,
                )
            self._schedule_cache[key] = cached
        return cached


def prepare_workload(
    name: str,
    program: Program,
    train_inputs: Optional[Mapping[int, bytes]],
    eval_inputs: Optional[Mapping[int, bytes]],
    enlarge_config: Optional[EnlargeConfig] = None,
    max_nodes: int = 200_000_000,
) -> PreparedWorkload:
    """Profile, enlarge and trace one benchmark.

    Raises:
        WorkloadMismatch: if the enlarged program's output differs from
            the original's on the evaluation input (would indicate an
            enlargement bug; also guarded by tests).
    """
    # 1. Profile on the training input; derive static hints.
    train_run = run_program(program, inputs=train_inputs, max_nodes=max_nodes)
    profile = build_profile(train_run.trace)
    single = annotate_static_hints(program, profile)

    # 2. Build the enlarged program and its own static hints.
    plan = plan_enlargement(single, profile, enlarge_config or EnlargeConfig())
    enlarged = apply_plan(single, plan)
    enlarged_train = run_program(enlarged, inputs=train_inputs, max_nodes=max_nodes)
    enlarged = annotate_static_hints(enlarged, build_profile(enlarged_train.trace))

    # 3. Functional evaluation runs (these traces drive all timing runs).
    single_run = run_program(single, inputs=eval_inputs, max_nodes=max_nodes)
    enlarged_run = run_program(enlarged, inputs=eval_inputs, max_nodes=max_nodes)
    if (
        single_run.output != enlarged_run.output
        or single_run.exit_code != enlarged_run.exit_code
    ):
        raise WorkloadMismatch(
            f"{name}: enlarged program diverged from the original"
        )
    return PreparedWorkload(
        name, single, enlarged, single_run.trace, enlarged_run.trace
    )


def simulate(prepared: PreparedWorkload, config: MachineConfig,
             collector: Collector = NULL_COLLECTOR,
             max_cycles: Optional[int] = None) -> SimResult:
    """Run one timing simulation of a prepared workload.

    ``collector`` receives per-cycle pipeline events when it is a
    tracing collector (see :mod:`repro.telemetry`); the default null
    collector records nothing and costs nothing.

    ``max_cycles`` bounds the engine's simulated clock (watchdog; see
    :mod:`repro.machine.errors`; default ``REPRO_MAX_CYCLES``), raising
    ``SimulationHang`` instead of spinning forever.  The engine always
    checks its retired-node accounting against the functional trace,
    raising ``EngineDivergence`` on mismatch.
    """
    templates = prepared.templates_for(config.branch_mode)
    trace = prepared.trace_for(config.branch_mode)
    if config.discipline is Discipline.STATIC:
        engine = StaticEngine(
            templates, prepared.schedules_for(config, collector), trace, config,
            benchmark=prepared.name, collector=collector,
            max_cycles=max_cycles,
        )
    else:
        engine = DynamicEngine(
            templates, trace, config, benchmark=prepared.name,
            collector=collector, max_cycles=max_cycles,
        )
    engine.streams = prepared.streams_for(config.branch_mode)
    result = engine.run()
    # Normalise the performance metric to architectural work (the single
    # program's retired node count); see SimResult.retired_per_cycle.
    result.work_nodes = prepared.single_trace.retired_nodes
    return result
