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

The engines memoise block transfers (every static point; dynamic
windows 1 and 4 without value speculation) under any collector that
does not trace, and the memo carries the attribution buckets.  The
generated programs run too few rounds to revisit many states, so grep
points on the memoised lines and a loop whose enlarged blocks fault at
several different asserts check the memo under the null and under a
metrics collector, and a spy on its miss path makes sure it served the
block instances.
"""

import dataclasses
import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import compile_source
from repro.machine import BranchMode, Discipline, MachineConfig
from repro.machine.config import ISSUE_MODELS, MEMORY_CONFIGS, WINDOW_SIZES
from repro.machine.dynamic import _SLOT_TABLE_CYCLES
from repro.machine.memo import TransferMemo
from repro.machine.predictor import PREDICTOR_KINDS
from repro.machine.simulator import prepare_workload, simulate
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
    """Profile, enlarge and trace a generated program with
    ``prepare_workload``, which also checks that the enlarged program
    computes what the original does."""
    return prepare_workload("generated", compile_source(source),
                            {0: b""}, {0: b""})


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


#: Points the transfer memo serves, one per memoised line kind: static
#: at a cached memory, window 1 at the sequential model, window 4 with
#: a realistic and with a perfect predictor.
MEMOISED = (
    MachineConfig(Discipline.STATIC, 2, "E", BranchMode.ENLARGED),
    MachineConfig(Discipline.DYNAMIC, 1, "A", BranchMode.SINGLE,
                  window_blocks=1),
    MachineConfig(Discipline.DYNAMIC, 2, "C", BranchMode.ENLARGED,
                  window_blocks=4),
    MachineConfig(Discipline.DYNAMIC, 8, "A", BranchMode.PERFECT,
                  window_blocks=4),
)


@pytest.fixture
def memo_misses(monkeypatch):
    """Record the input id of every transfer the memo had to compute."""
    misses = []
    store = TransferMemo.store

    def spy(self, input_id, key, record):
        misses.append(input_id)
        store(self, input_id, key, record)

    monkeypatch.setattr(TransferMemo, "store", spy)
    return misses


def assert_memo_matches_reference(prepared, config, misses, served):
    """The memoised point equals the reference's under the null and
    under a metrics collector (attribution buckets included), and each
    time the memo served at least the fraction ``served`` of the
    point's block instances."""
    blocks = len(prepared.trace_for(config.branch_mode).block_ids)
    for make_collector in (lambda: NULL_COLLECTOR, MetricsCollector):
        del misses[:]
        collector = make_collector()
        expected_collector = make_collector()
        result = simulate(prepared, config, collector=collector)
        expected = reference_result(prepared, config, expected_collector)
        assert dataclasses.asdict(result) == dataclasses.asdict(expected)
        assert collector.counters == expected_collector.counters
        assert 0 < len(misses) <= blocks * (1 - served)


@pytest.mark.parametrize("config", MEMOISED, ids=str)
def test_memoised_points_match_reference_on_grep(grep_prepared, memo_misses,
                                                 config):
    assert_memo_matches_reference(grep_prepared, config, memo_misses, 0.9)


#: Each round the inner loop's rare arm falls at a different unrolled
#: copy of its enlarged body, so those blocks fault at several asserts.
SEVERAL_FAULTS = """
int data[64];

int main() {
    int i;
    int s = 0;
    int round;
    for (i = 0; i < 64; i++) {
        data[i] = (i * 7) & 15;
    }
    for (round = 0; round < 30; round++) {
        for (i = 0; i < 20; i++) {
            if (data[(i + round) & 63] == 3) {
                s = s - 1;
            } else {
                s = s + data[i];
            }
        }
    }
    return s & 127;
}
"""


@pytest.mark.parametrize("config", [
    MachineConfig(Discipline.STATIC, 2, "A", BranchMode.ENLARGED),
    MachineConfig(Discipline.STATIC, 5, "D", BranchMode.ENLARGED),
    MachineConfig(Discipline.DYNAMIC, 1, "A", BranchMode.ENLARGED,
                  window_blocks=1),
    MachineConfig(Discipline.DYNAMIC, 5, "C", BranchMode.ENLARGED,
                  window_blocks=4),
    MachineConfig(Discipline.DYNAMIC, 8, "A", BranchMode.PERFECT,
                  window_blocks=4),
], ids=str)
def test_memo_tells_a_blocks_faulting_asserts_apart(memo_misses, config):
    prepared = prepare(SEVERAL_FAULTS)
    trace = prepared.enlarged_trace
    asserts = {}
    for block_id, fault_index in zip(trace.block_ids, trace.fault_indices):
        if fault_index >= 0:
            asserts.setdefault(block_id, set()).add(fault_index)
    assert max(len(found) for found in asserts.values()) >= 5
    assert_memo_matches_reference(prepared, config, memo_misses, 0.5)


#: The store's value comes late and the load's address early: when the
#: load reads the word the store just wrote (every fourth iteration) it
#: waits for the store, otherwise it runs ahead.
STORE_THEN_LOAD = """
int hist[16];

int main() {
    int i;
    int s = 0;
    int round;
    int v = 1;
    for (round = 0; round < 20; round++) {
        for (i = 0; i < 60; i++) {
            v = (v * 3 + s) & 1023;
            hist[i & 7] = v * v;
            s = s + hist[(i * 3) & 7];
        }
    }
    return s & 127;
}
"""


@pytest.mark.parametrize("config", [
    MachineConfig(Discipline.DYNAMIC, 8, "A", BranchMode.SINGLE,
                  window_blocks=1),
    MachineConfig(Discipline.DYNAMIC, 5, "C", BranchMode.SINGLE,
                  window_blocks=4),
    MachineConfig(Discipline.DYNAMIC, 5, "A", BranchMode.ENLARGED,
                  window_blocks=1),
], ids=str)
def test_memo_tells_aliasing_words_apart(memo_misses, config):
    assert_memo_matches_reference(prepare(STORE_THEN_LOAD), config,
                                  memo_misses, 0.5)


#: A program ``repeating_program`` drew: each round stores grid[0][0]
#: and the next loads it, so a load can wait on a store of an earlier
#: block whose operands no longer sit in any register.
LOOP_CARRIED_STORE = _PRELUDE + """int main() {
    int a = 3;
    int b = -7;
    int c = 11;
    int k0;
    int k1;
    int round;
    for (round = 0; round < 33; round++) {
        c = c + grid[0][0];
        grid[0][0] = round / 6;
        b = b + grid[b & 1][grid[1][b & 1] & 1];
        if ((c >> 0) & 1) { a = a - b; }
        a = a + round;
        b = ((-69 & c) ^ a);
    }
    return (a ^ b ^ c ^ grid[1][1]) & 127;
}
"""


@pytest.mark.parametrize("config", [
    MachineConfig(Discipline.DYNAMIC, 5, "C", BranchMode.ENLARGED,
                  window_blocks=1),
    MachineConfig(Discipline.DYNAMIC, 8, "A", BranchMode.ENLARGED,
                  window_blocks=4),
    MachineConfig(Discipline.DYNAMIC, 5, "C", BranchMode.PERFECT,
                  window_blocks=4),
], ids=str)
def test_memo_keys_on_earlier_stores(memo_misses, config):
    assert_memo_matches_reference(prepare(LOOP_CARRIED_STORE), config,
                                  memo_misses, 0.2)


#: Two syscalls in a row with their operands already in registers: the
#: second one's block holds nothing else, so it opens no issue word and
#: leaves the gap before it to the next block's charge.  A dynamic
#: transfer record cannot end at such a block, so its traces run the
#: dynamic engine without the memo.
LONE_SYSCALLS = """
int data[16];

int main() {
    int i;
    int s = 0;
    int c = 65;
    int fd = 1;
    for (i = 0; i < 200; i++) {
        data[i & 15] = data[(i * 5) & 15] + i;
        s = s + data[i & 15];
        if (s & 4) {
            putc(fd, c);
            putc(fd, c);
        }
    }
    return s & 127;
}
"""


@pytest.mark.parametrize("config", [
    MachineConfig(Discipline.DYNAMIC, 1, "D", BranchMode.SINGLE,
                  window_blocks=1),
    MachineConfig(Discipline.DYNAMIC, 8, "D", BranchMode.ENLARGED,
                  window_blocks=1),
    MachineConfig(Discipline.DYNAMIC, 8, "A", BranchMode.PERFECT,
                  window_blocks=4),
], ids=str)
def test_lone_syscalls_keep_their_gap_for_the_next_block(memo_misses,
                                                         config):
    prepared = prepare(LONE_SYSCALLS)
    templates = prepared.templates_for(config.branch_mode)
    trace = prepared.trace_for(config.branch_mode)
    assert any(not templates[trace.labels[block_id]].n_datapath
               for block_id in trace.block_ids[:-1])
    collector = MetricsCollector()
    expected_collector = MetricsCollector()
    result = simulate(prepared, config, collector=collector)
    expected = reference_result(prepared, config, expected_collector)
    assert dataclasses.asdict(result) == dataclasses.asdict(expected)
    assert collector.counters == expected_collector.counters
    assert not memo_misses
