"""Stream replays: layers that run inside the engines, timed standalone.

The cache model, the branch predictors and the value predictors are
called per memory node, per branch and per load from inside the timing
engines, so from outside they can only be timed by replaying their
streams directly.  Each stream is extracted from a prepared trace in
trace order first; only the calls into the layer are timed.  The
dynamic engine drives these layers in the same order (wrong-path fetch
only peeks, faulted blocks resolve no branch), so a replay's counters
equal a dynamic point's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Replay:
    calls: int
    seconds: float
    #: useful outcomes and attempts: cache hits of probes, correct
    #: branch predictions of lookups, confirmed of delivered values.
    useful: int
    attempts: int


def _block_templates(trace: Any, templates: Dict[str, Any]) -> List[Any]:
    return [templates[label] for label in trace.labels]


def memory_stream(trace: Any, templates: Dict[str, Any]) -> List[Tuple[bool, int]]:
    """``(is_load, address)`` for every memory node, in trace order."""
    from repro.machine.templates import T_LOAD, T_STORE

    by_id = _block_templates(trace, templates)
    addresses = trace.addresses
    out = []
    cursor = 0
    for block_id in trace.block_ids:
        for cls, _, _ in by_id[block_id].nodes:
            if cls == T_LOAD or cls == T_STORE:
                out.append((cls == T_LOAD, addresses[cursor]))
                cursor += 1
    return out


def branch_stream(trace: Any,
                  templates: Dict[str, Any]) -> List[Tuple[str, Optional[bool], bool]]:
    """``(label, static hint, taken)`` per resolved conditional branch."""
    from repro.interp.trace import TAKEN

    by_id = _block_templates(trace, templates)
    out = []
    for position, block_id in enumerate(trace.block_ids):
        tmpl = by_id[block_id]
        if tmpl.has_branch and trace.fault_indices[position] < 0:
            out.append((tmpl.label, tmpl.static_hint,
                        trace.outcomes[position] == TAKEN))
    return out


def value_stream(trace: Any, templates: Dict[str, Any]) -> List[Tuple[str, int]]:
    """``(load site, loaded value)`` for every load, in trace order."""
    from repro.machine.templates import T_LOAD
    from repro.predict import load_site

    by_id = _block_templates(trace, templates)
    values = trace.load_values
    out = []
    cursor = 0
    for block_id in trace.block_ids:
        tmpl = by_id[block_id]
        for index, (cls, _, _) in enumerate(tmpl.nodes):
            if cls == T_LOAD:
                out.append((load_site(tmpl.label, index), values[cursor]))
                cursor += 1
    return out


def replay_memory(stream: List[Tuple[bool, int]], letter: str) -> Replay:
    from repro.machine.cache import MemorySystem
    from repro.machine.config import MEMORY_CONFIGS

    memsys = MemorySystem(MEMORY_CONFIGS[letter])
    load = memsys.load_latency
    store = memsys.store_access
    start = time.perf_counter()
    for is_load, address in stream:
        if is_load:
            load(address)
        else:
            store(address)
    seconds = time.perf_counter() - start
    cache = memsys.cache
    return Replay(len(stream), seconds, cache.accesses - cache.misses,
                  cache.accesses)


def replay_branches(stream: List[Tuple[str, Optional[bool], bool]],
                    kind: str) -> Replay:
    from repro.machine.predictor import make_predictor

    predictor = make_predictor(kind, True)
    predict = predictor.predict
    update = predictor.update
    start = time.perf_counter()
    for label, hint, taken in stream:
        update(label, taken, predict(label, hint))
    seconds = time.perf_counter() - start
    return Replay(len(stream), seconds,
                  predictor.lookups - predictor.mispredicts,
                  predictor.lookups)


def replay_values(stream: List[Tuple[str, int]], kind: str) -> Replay:
    from repro.predict import make_value_predictor

    vp = make_value_predictor(kind)
    update = vp.update
    start = time.perf_counter()
    if vp.perfect:
        # The engine answers from the trace and only routes the counters
        # through the oracle; the replay does the same.
        for _, actual in stream:
            vp.lookups += 1
            update("", actual, actual)
    else:
        predict = vp.predict
        for site, actual in stream:
            update(site, actual, predict(site))
    seconds = time.perf_counter() - start
    return Replay(len(stream), seconds, vp.confirmed, vp.predictions)
