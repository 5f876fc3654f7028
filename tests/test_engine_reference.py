"""Differential test: the timing engines against their frozen reference.

``tests/reference/`` holds the dynamic and static engines as they stood
before their configuration-independent work moved into per-trace
streams.  Hypothesis generates random Mini-C programs (the front-end
generators of ``test_lang_properties``) and random machine
configurations on every axis -- issue models 1-10, memories A-I,
windows 1/4/256, all three branch modes, every branch predictor, every
value predictor, static hints on and off -- and the production
``SimResult`` must equal the reference's field for field, including the
attribution buckets under a metrics collector and every event under a
tracing collector.  A second test compares the engines on grep, a real
workload, at two configurations.

No committed baseline covers the sequential issue model or memories B,
F and G; these tests are their only check.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.enlarge import EnlargeConfig, apply_plan, plan_enlargement
from repro.interp import run_program
from repro.lang import compile_source
from repro.machine import BranchMode, Discipline, MachineConfig
from repro.machine.config import ISSUE_MODELS, MEMORY_CONFIGS, WINDOW_SIZES
from repro.machine.dynamic import _SLOT_TABLE_CYCLES
from repro.machine.predictor import PREDICTOR_KINDS
from repro.machine.simulator import PreparedWorkload, simulate
from repro.profiles import annotate_static_hints, build_profile
from repro.predict import VALUE_PREDICTOR_KINDS
from repro.telemetry.collector import (
    NULL_COLLECTOR,
    MetricsCollector,
    TraceCollector,
)

from test_lang_properties import _PRELUDE, _stmt, mini_c_program


def _load_reference(name):
    """Load ``tests/reference/<name>.py`` inside the ``repro.machine``
    package, so its relative imports resolve as they did in ``src``."""
    path = Path(__file__).parent / "reference" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(
        f"repro.machine._reference_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE_DYNAMIC = _load_reference("dynamic").DynamicEngine
REFERENCE_STATIC = _load_reference("static_engine").StaticEngine

#: Collector factories: none, metrics (attribution), trace (events).
COLLECTORS = (lambda: NULL_COLLECTOR, MetricsCollector, TraceCollector)


@st.composite
def repeating_program(draw):
    """A generated program whose statements run for up to 40 rounds.

    Enough rounds make the loop hot enough to enlarge (so enlarged
    blocks fault on its exit), and let predictors warm up and then meet
    the branches and values that break their patterns: a load of a
    value that holds for ``period`` rounds and then steps gives the
    value predictors squashes and their dependents replays."""
    statements = draw(st.lists(_stmt(), min_size=1, max_size=4))
    rounds = draw(st.integers(min_value=2, max_value=40))
    # A loaded value that holds for `period` rounds, then steps.
    period = draw(st.integers(min_value=2, max_value=6))
    # A branch on a bit of the running sum: taken in irregular runs.
    bit = draw(st.integers(min_value=0, max_value=3))
    body = "\n        ".join(statements)
    return (
        _PRELUDE
        + "int main() {\n"
        + "    int a = 3;\n    int b = -7;\n    int c = 11;\n"
        + "    int k0;\n    int k1;\n    int round;\n"
        + f"    for (round = 0; round < {rounds}; round++) {{\n"
        + "        c = c + grid[0][0];\n"
        + f"        grid[0][0] = round / {period};\n"
        # Loads whose addresses hang on loads: a loop-carried chain
        # long enough to keep older blocks in the window.
        + "        b = b + grid[b & 1][grid[1][b & 1] & 1];\n"
        + f"        if ((c >> {bit}) & 1) {{ a = a - b; }}\n"
        + f"        a = a + round;\n        {body}\n"
        + "    }\n"
        + "    return (a ^ b ^ c ^ grid[1][1]) & 127;\n"
        + "}\n"
    )


@st.composite
def machine_configs(draw):
    issue = draw(st.sampled_from(sorted(ISSUE_MODELS)))
    memory = draw(st.sampled_from(sorted(MEMORY_CONFIGS)))
    hints = draw(st.booleans())
    predictor = draw(st.sampled_from(PREDICTOR_KINDS))
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        mode = draw(st.sampled_from([BranchMode.SINGLE, BranchMode.ENLARGED]))
        return MachineConfig(Discipline.STATIC, issue, memory, mode,
                             static_hints=hints, predictor=predictor)
    return MachineConfig(
        Discipline.DYNAMIC, issue, memory,
        draw(st.sampled_from(list(BranchMode))),
        window_blocks=draw(st.sampled_from(WINDOW_SIZES)),
        static_hints=hints, predictor=predictor,
        value_predictor=draw(st.sampled_from(VALUE_PREDICTOR_KINDS)),
    )


def prepare(source):
    """Profile, enlarge and trace a generated program as
    ``prepare_workload`` does, minus its output comparison.

    A known enlargement defect (see ROADMAP.md) makes some enlarged
    loops compute a different result; the engines must agree on
    whatever trace a program produces, so those programs are kept.
    """
    program = compile_source(source)
    profile = build_profile(run_program(program, inputs={0: b""}).trace)
    single = annotate_static_hints(program, profile)
    enlarged = apply_plan(single, plan_enlargement(single, profile,
                                                   EnlargeConfig()))
    enlarged = annotate_static_hints(enlarged, build_profile(
        run_program(enlarged, inputs={0: b""}).trace))
    return PreparedWorkload(
        "generated", single, enlarged,
        run_program(single, inputs={0: b""}).trace,
        run_program(enlarged, inputs={0: b""}).trace)


def reference_result(prepared, config, collector):
    templates = prepared.templates_for(config.branch_mode)
    trace = prepared.trace_for(config.branch_mode)
    if config.discipline is Discipline.STATIC:
        engine = REFERENCE_STATIC(
            templates, prepared.schedules_for(config), trace, config,
            benchmark=prepared.name, collector=collector)
    else:
        engine = REFERENCE_DYNAMIC(templates, trace, config,
                                   benchmark=prepared.name,
                                   collector=collector)
    result = engine.run()
    result.work_nodes = prepared.single_trace.retired_nodes
    return result


@settings(max_examples=150, deadline=None)
@given(st.one_of(mini_c_program(), repeating_program()),
       st.lists(st.tuples(machine_configs(), st.sampled_from(COLLECTORS)),
                min_size=1, max_size=6))
def test_engines_match_reference(source, points):
    prepared = prepare(source)
    # One prepared workload for every point, so later points reuse the
    # streams earlier ones built.
    for config, make_collector in points:
        collector = make_collector()
        expected_collector = make_collector()
        result = simulate(prepared, config, collector=collector)
        expected = reference_result(prepared, config, expected_collector)
        assert dataclasses.asdict(result) == dataclasses.asdict(expected), \
            str(config)
        assert collector.counters == expected_collector.counters
        assert collector.events == expected_collector.events


@pytest.mark.parametrize("config", [
    MachineConfig(Discipline.DYNAMIC, 2, "D", BranchMode.ENLARGED,
                  window_blocks=256, value_predictor="stride"),
    MachineConfig(Discipline.STATIC, 2, "F", BranchMode.SINGLE),
], ids=str)
def test_engines_match_reference_on_grep(grep_prepared, config):
    # A real workload, long enough for the dynamic engine's slot tables
    # to outgrow their first allocation.
    collector = MetricsCollector()
    expected_collector = MetricsCollector()
    result = simulate(grep_prepared, config, collector=collector)
    expected = reference_result(grep_prepared, config, expected_collector)
    assert dataclasses.asdict(result) == dataclasses.asdict(expected)
    assert collector.counters == expected_collector.counters
    if config.discipline is Discipline.DYNAMIC:
        assert result.cycles > _SLOT_TABLE_CYCLES
