"""Per-trace streams: what they hold, how they are shared, where chains end.

Each stream must say exactly what the engines used to learn by driving
``MemorySystem``, a branch predictor or a value predictor themselves,
so its counters are checked against a direct replay of the same layer.
"""

import dataclasses

import pytest

from repro.interp import run_program
from repro.interp.trace import TAKEN
from repro.machine import BranchMode, Discipline, MachineConfig, build_templates
from repro.machine.cache import MemorySystem
from repro.machine.config import MEMORY_CONFIGS
from repro.machine.dynamic import DynamicEngine
from repro.machine.predictor import PREDICTOR_KINDS, make_predictor
from repro.machine.simulator import simulate
from repro.machine.streams import (
    MEM_MISS,
    MEM_WB_HIT,
    VALUE_CONFIRMED,
    VALUE_NONE,
    VALUE_SQUASHED,
    WRONG_PATH_BLOCK_LIMIT,
    branch_stream,
)
from repro.machine.templates import T_LOAD, T_STORE
from repro.predict import load_site, make_value_predictor
from repro.program import parse_program

ENLARGED = BranchMode.ENLARGED


def trace_blocks(prepared, mode):
    """(position, template) for every dynamic block, in trace order."""
    templates = prepared.templates_for(mode)
    trace = prepared.trace_for(mode)
    return [(position, templates[trace.labels[block_id]])
            for position, block_id in enumerate(trace.block_ids)]


# ----------------------------------------------------------------------
@pytest.mark.parametrize("letter", ["A", "D", "I"])
def test_memory_stream_matches_a_direct_replay(grep_prepared, letter):
    memory = MEMORY_CONFIGS[letter]
    stream = grep_prepared.streams_for(ENLARGED).memory(memory)
    memsys = MemorySystem(memory)
    addresses = grep_prepared.trace_for(ENLARGED).addresses
    outcomes = []
    cursor = 0
    for _, tmpl in trace_blocks(grep_prepared, ENLARGED):
        for cls, _, _ in tmpl.nodes:
            if cls == T_LOAD:
                wb_hits = memsys.wb_hits
                latency = memsys.load_latency(addresses[cursor])
                outcomes.append(
                    MEM_WB_HIT if memsys.wb_hits != wb_hits
                    else MEM_MISS if latency > memory.hit_cycles else 0)
                cursor += 1
            elif cls == T_STORE:
                memsys.store_access(addresses[cursor])
                outcomes.append(0)
                cursor += 1
    cache = memsys.cache
    assert (stream.loads, stream.stores, stream.wb_hits) == \
        (memsys.load_count, memsys.store_count, memsys.wb_hits)
    assert (stream.cache_accesses, stream.cache_misses) == \
        ((cache.accesses, cache.misses) if cache else (0, 0))
    assert list(stream.outcomes) == outcomes


@pytest.mark.parametrize("kind", PREDICTOR_KINDS)
def test_branch_stream_matches_a_direct_replay(grep_prepared, kind):
    stream = grep_prepared.streams_for(ENLARGED).branches(kind, True)
    predictor = make_predictor(kind, True)
    trace = grep_prepared.trace_for(ENLARGED)
    mispredicted = set()
    faulted = set()
    for position, tmpl in trace_blocks(grep_prepared, ENLARGED):
        if trace.fault_indices[position] in tmpl.fault_targets:
            faulted.add(position)
        elif tmpl.has_branch:
            taken = trace.outcomes[position] == TAKEN
            predicted = predictor.predict(tmpl.label, tmpl.static_hint)
            predictor.update(tmpl.label, taken, predicted)
            if predicted != taken:
                mispredicted.add(position)
    assert (stream.lookups, stream.mispredicts) == \
        (predictor.lookups, predictor.mispredicts)
    assert set(stream.wrong_paths) == mispredicted | faulted
    assert faulted  # the enlarged trace exercises the fault path


@pytest.mark.parametrize("kind", ["last", "stride", "context", "perfect"])
def test_value_stream_matches_a_direct_replay(grep_prepared, kind):
    stream = grep_prepared.streams_for(ENLARGED).values(kind)
    vp = make_value_predictor(kind)
    values = grep_prepared.trace_for(ENLARGED).load_values
    outcomes = []
    cursor = 0
    for _, tmpl in trace_blocks(grep_prepared, ENLARGED):
        for index, (cls, _, _) in enumerate(tmpl.nodes):
            if cls != T_LOAD:
                continue
            actual = values[cursor]
            cursor += 1
            site = load_site(tmpl.label, index)
            predicted = actual if vp.perfect else vp.predict(site)
            vp.update(site, actual, predicted)
            outcomes.append(
                VALUE_NONE if predicted is None
                else VALUE_CONFIRMED if predicted == actual
                else VALUE_SQUASHED)
    assert (stream.predictions, stream.confirmed, stream.squashed) == \
        (vp.predictions, vp.confirmed, vp.squashed)
    assert list(stream.outcomes) == outcomes


# ----------------------------------------------------------------------
def test_points_sharing_a_key_share_the_stream(grep_prepared):
    w4 = MachineConfig(Discipline.DYNAMIC, 8, "D", ENLARGED, window_blocks=4)
    w256 = dataclasses.replace(w4, window_blocks=256)
    streams = grep_prepared.streams_for(w4.branch_mode)
    assert grep_prepared.streams_for(w256.branch_mode) is streams
    # Perfect prediction replays the enlarged program's trace too.
    assert grep_prepared.streams_for(BranchMode.PERFECT) is streams
    assert grep_prepared.streams_for(BranchMode.SINGLE) is not streams

    memory = streams.memory(w4.memory_config)
    assert streams.memory(w256.memory_config) is memory
    assert streams.memory(MEMORY_CONFIGS["E"]) is not memory
    branches = streams.branches(w4.predictor, w4.static_hints)
    assert streams.branches(w256.predictor, w256.static_hints) is branches
    assert streams.branches("gshare", True) is not branches
    assert streams.branches(w4.predictor, False) is not branches
    assert streams.values("stride") is streams.values("stride")
    assert streams.values("stride") is not streams.values("last")
    assert streams.issue_plans(w4.issue) is streams.issue_plans(w256.issue)


def test_a_directly_built_engine_builds_its_own_streams(grep_prepared):
    config = MachineConfig(Discipline.DYNAMIC, 5, "D", ENLARGED,
                           window_blocks=4, value_predictor="stride")
    shared = simulate(grep_prepared, config)
    own = DynamicEngine(grep_prepared.templates_for(ENLARGED),
                        grep_prepared.trace_for(ENLARGED), config,
                        benchmark="grep").run()
    own.work_nodes = shared.work_nodes
    assert own == shared


# ----------------------------------------------------------------------
LOOP = """
.entry top
block top:
    mov r1, #0
    mov r2, #40
    jmp head
block head:
    add r1, r1, #1
    slt r3, r1, r2
    br r3, head, done
block done:
    slt r5, r1, r2
    br r5, cold, call
block cold:
    mov r6, #1
    jmp colder
block colder:
    jmp fin
block call:
    call leaf, ret=fin
block leaf:
    mov r4, #1
    ret
block fin:
    sys exit(r1)
"""


@pytest.fixture(scope="module")
def loop():
    program = parse_program(LOOP)
    return build_templates(program), run_program(program,
                                                 inputs={0: b""}).trace


def test_a_wrong_path_stops_at_the_block_limit(loop):
    templates, trace = loop
    # Predicted taken, the loop exit mispredicts into `head`, which the
    # predictor keeps predicting back into itself; `done` mispredicts
    # into `cold`, whose path runs on to the exit.
    stream = branch_stream(templates, trace, "taken", True)
    assert sorted(stream.wrong_paths.values()) == [
        ("cold", "colder", "fin"), ("head",) * WRONG_PATH_BLOCK_LIMIT]


def test_a_wrong_path_stops_after_a_block_with_no_successor(loop):
    templates, trace = loop
    # Predicted not taken, every back edge mispredicts into `done`, on
    # to `call`, which calls `leaf`, whose return has no static
    # successor.
    stream = branch_stream(templates, trace, "nottaken", True)
    assert stream.mispredicts == 39
    assert set(stream.wrong_paths.values()) == {("done", "call", "leaf")}


def test_a_wrong_path_stops_before_an_unknown_label(loop):
    templates, trace = loop
    # `colder` never runs, so the trace does not need it.
    partial = {label: tmpl for label, tmpl in templates.items()
               if label != "colder"}
    stream = branch_stream(partial, trace, "taken", True)
    assert ("cold",) in stream.wrong_paths.values()
