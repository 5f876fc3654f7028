"""Per-trace streams: the part of a timing point no machine width decides.

The paper replays one trace per program over hundreds of machine
configurations.  Much of what a timing engine used to compute per point
depends only on the trace and on one predictor or memory, so it is
computed once here and read by every point that shares it:

* the **memory stream** -- hit, write-buffer hit or miss for every
  memory node in trace order, plus the memory counters -- depends on
  (trace, memory configuration).  The dynamic engine probes the cache in
  trace order and its wrong-path memory operations never touch it.  The
  static engine probes in *schedule* order and stops at a faulting
  word, so its probes stay per point (see :mod:`.static_engine`).
* the **branch stream** -- which branches mispredict, the predictor's
  counters, and the chain of blocks each wrong path would fetch --
  depends on (trace, predictor, static hints).  Both engines predict and
  train in trace order on every unfaulted branch, and wrong-path fetch
  only peeks, so the predictor state at each trace position is fixed.
* the **value stream** -- none, confirmed or squashed for every load,
  plus the value counters -- depends on (trace, value predictor).
* **issue plans** -- each block's per-node issue-word offsets and word
  count -- depend on (templates, issue model); **word plans** -- each
  scheduled word's de-duplicated source registers and its nodes --
  depend on (templates, schedules).
* **block inputs** -- an interned id per trace position naming what a
  block instance brings to a timing engine besides the machine state:
  its block, fault index and wrong-path chain, which of its memory
  nodes miss, and which of them share a word -- depend on (trace,
  memory, predictor).  The engines' transfer memos (:mod:`.memo`) key
  on them.  Which nodes share a word depends on the trace alone, so
  those **alias patterns** are interned once per trace.

:class:`TraceStreams` memoises all of them for one (templates, trace)
pair; :meth:`PreparedWorkload.streams_for` keeps one per translated
program, so the points of a sweep share them.  An engine constructed
directly builds its own with the same functions.
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..interp.trace import TAKEN, Trace
from ..isa.ops import NodeKind
from ..predict import load_site, make_value_predictor
from ..sched.list_scheduler import ScheduledBlock
from .cache import MemorySystem
from .config import IssueModel, MemoryConfig
from .predictor import make_predictor
from .templates import (
    BlockTemplate,
    T_ALU,
    T_ASSERT,
    T_BRANCH,
    T_LOAD,
    T_STORE,
    T_SYSCALL,
)

#: Fetch budget for one wrong-path excursion, in blocks.
WRONG_PATH_BLOCK_LIMIT = 64

#: Memory-stream outcomes, one per memory node in trace order (stores
#: always read ``MEM_HIT``: they never stall the machine).
MEM_HIT = 0
MEM_WB_HIT = 1  # the load hit a line in the write buffer
MEM_MISS = 2

#: Value-stream outcomes, one per load in trace order.
VALUE_NONE = 0  # no confident prediction was delivered
VALUE_CONFIRMED = 1
VALUE_SQUASHED = 2

#: A wrong path: the labels of the blocks fetch would follow, in order.
Chain = Tuple[str, ...]

#: Folds memory-stream outcomes to 1 for a miss and 0 otherwise (a
#: write-buffer hit costs a hit's latency).
_MISS_ONLY = bytes(code == MEM_MISS for code in range(256))


class MemoryStream(NamedTuple):
    """Every memory node's outcome in trace order, and the counters."""

    outcomes: bytearray
    loads: int
    stores: int
    cache_accesses: int
    cache_misses: int
    wb_hits: int


def memory_stream(templates: Dict[str, BlockTemplate], trace: Trace,
                  memory: MemoryConfig) -> MemoryStream:
    """Replay every memory node of ``trace`` through ``MemorySystem``."""
    by_id = [templates[label] for label in trace.labels]
    outcomes = bytearray(len(trace.addresses))
    if memory.is_perfect:
        runs = Counter(trace.block_ids)
        loads = stores = 0
        for block_id, count in runs.items():
            for cls, _, _ in by_id[block_id].nodes:
                if cls == T_LOAD:
                    loads += count
                elif cls == T_STORE:
                    stores += count
        return MemoryStream(outcomes, loads, stores, 0, 0, 0)
    memsys = MemorySystem(memory)
    cache = memsys.cache
    load = memsys.load_latency
    store = memsys.store_access
    addresses = trace.addresses
    kinds = [tuple(cls == T_LOAD for cls, _, _ in tmpl.nodes
                   if cls == T_LOAD or cls == T_STORE) for tmpl in by_id]
    cursor = 0
    for block_id in trace.block_ids:
        for is_load in kinds[block_id]:
            if is_load:
                misses = cache.misses
                wb_hits = memsys.wb_hits
                load(addresses[cursor])
                if cache.misses != misses:
                    outcomes[cursor] = MEM_MISS
                elif memsys.wb_hits != wb_hits:
                    outcomes[cursor] = MEM_WB_HIT
            else:
                store(addresses[cursor])
            cursor += 1
    return MemoryStream(outcomes, memsys.load_count, memsys.store_count,
                        cache.accesses, cache.misses, memsys.wb_hits)


class BranchStream(NamedTuple):
    """Mispredictions and wrong paths of one predictor over one trace.

    ``wrong_paths`` maps the trace position of every mispredicted branch
    and every faulting block to the chain of blocks fetch follows past
    it: for a mispredict, from the wrongly predicted target; for a
    fault, from the block's predicted successor.  A chain stops after
    :data:`WRONG_PATH_BLOCK_LIMIT` blocks, at a block with no predicted
    successor (a return, or exit) and before a label the program lacks.
    """

    wrong_paths: Dict[int, Chain]
    lookups: int
    mispredicts: int


def branch_stream(templates: Dict[str, BlockTemplate], trace: Trace,
                  kind: str, static_hints: bool) -> BranchStream:
    """Drive one predictor through ``trace`` as both engines do."""
    predictor = make_predictor(kind, static_hints)
    peek = predictor.peek

    def successor(tmpl: BlockTemplate) -> Optional[str]:
        """Where fetch goes after ``tmpl`` on the predicted path."""
        if tmpl.has_branch:
            if peek(tmpl.label, tmpl.static_hint):
                return tmpl.branch_taken
            return tmpl.branch_alt
        if tmpl.term_kind in (NodeKind.JUMP, NodeKind.CALL, NodeKind.SYSCALL):
            return tmpl.control_target  # None for EXIT
        return None  # RET: the return stack redirects; treat as a stall

    interned: Dict[Chain, Chain] = {}

    def chain(label: Optional[str]) -> Chain:
        labels: List[str] = []
        first_seen: Dict[str, int] = {}
        while label is not None and len(labels) < WRONG_PATH_BLOCK_LIMIT:
            if label in first_seen:
                # Peeks leave the predictor unchanged, so a path that
                # returns to a block repeats the loop it just closed.
                loop = labels[first_seen[label]:]
                while len(labels) < WRONG_PATH_BLOCK_LIMIT:
                    labels.extend(loop)
                del labels[WRONG_PATH_BLOCK_LIMIT:]
                break
            tmpl = templates.get(label)
            if tmpl is None:
                break
            first_seen[label] = len(labels)
            labels.append(label)
            label = successor(tmpl)
        found = tuple(labels)
        return interned.setdefault(found, found)

    by_id = [templates[label] for label in trace.labels]
    outcomes = trace.outcomes
    fault_indices = trace.fault_indices
    wrong_paths: Dict[int, Chain] = {}
    for position, block_id in enumerate(trace.block_ids):
        tmpl = by_id[block_id]
        if fault_indices[position] in tmpl.fault_targets:  # an assert
            wrong_paths[position] = chain(successor(tmpl))
        elif tmpl.has_branch:
            taken = outcomes[position] == TAKEN
            predicted = predictor.predict(tmpl.label, tmpl.static_hint)
            predictor.update(tmpl.label, taken, predicted)
            if predicted != taken:
                wrong_paths[position] = chain(
                    tmpl.branch_taken if predicted else tmpl.branch_alt)
    return BranchStream(wrong_paths, predictor.lookups, predictor.mispredicts)


class ValueStream(NamedTuple):
    """Every load's value-prediction outcome in trace order."""

    outcomes: bytearray
    predictions: int
    confirmed: int
    squashed: int


def value_stream(templates: Dict[str, BlockTemplate], trace: Trace,
                 kind: str) -> ValueStream:
    """Drive one value predictor through every load of ``trace``."""
    by_id = [templates[label] for label in trace.labels]
    sites = [tuple(load_site(tmpl.label, index)
                   for index, (cls, _, _) in enumerate(tmpl.nodes)
                   if cls == T_LOAD) for tmpl in by_id]
    values = trace.load_values
    if not values and any(sites):
        raise ValueError(
            "value prediction needs a trace with recorded load values;"
            " re-prepare the workload's artifacts"
        )
    vp = make_value_predictor(kind)
    if vp.perfect:
        # The oracle predicts every load's actual value.
        loads = sum(len(sites[block_id]) * count
                    for block_id, count in Counter(trace.block_ids).items())
        return ValueStream(bytearray([VALUE_CONFIRMED]) * loads, loads,
                           loads, 0)
    predict = vp.predict
    update = vp.update
    outcomes = bytearray(len(values))
    cursor = 0
    for block_id in trace.block_ids:
        for site in sites[block_id]:
            actual = values[cursor]
            predicted = predict(site)
            update(site, actual, predicted)
            if predicted is not None:
                outcomes[cursor] = (VALUE_CONFIRMED if predicted == actual
                                    else VALUE_SQUASHED)
            cursor += 1
    return ValueStream(outcomes, vp.predictions, vp.confirmed, vp.squashed)


def _narrow(ids: array, distinct: int) -> array:
    """``ids`` in the narrowest array that holds ``distinct`` ids.

    A trace has few distinct block inputs or alias patterns.
    """
    for typecode in "BH":
        if distinct <= 1 << (8 * array(typecode).itemsize):
            return array(typecode, ids)
    return ids


def alias_patterns(templates: Dict[str, BlockTemplate],
                   trace: Trace) -> array:
    """Intern which memory nodes share a word, per trace position.

    ``patterns[position]`` is 0 when the block instance's memory nodes
    address distinct words; otherwise it names the tuple that maps each
    node to the first node addressing its word.
    """
    n_mem = [templates[label].n_mem for label in trace.labels]
    addresses = trace.addresses
    ids = array("i", [0]) * len(trace.block_ids)
    interned: Dict[Optional[tuple], int] = {None: 0}
    cursor = 0
    for position, block_id in enumerate(trace.block_ids):
        count = n_mem[block_id]
        if count > 1:
            words = [address >> 2
                     for address in addresses[cursor:cursor + count]]
            if len(set(words)) < count:
                pattern = tuple([words.index(word) for word in words])
                found = interned.get(pattern)
                if found is None:
                    found = interned[pattern] = len(interned)
                ids[position] = found
        cursor += count
    return _narrow(ids, len(interned))


class BlockInputs(NamedTuple):
    """Every block instance's inputs, interned to small ids.

    ``ids[position]`` is the same for two block instances exactly when
    they share their block, fault index and wrong-path chain, the miss
    pattern of their memory nodes, and which of those nodes address
    the same word.  ``mem_nodes[id]`` is that block's memory-node count.
    """

    ids: array
    mem_nodes: List[int]


def block_inputs(templates: Dict[str, BlockTemplate], trace: Trace,
                 aliases: array, misses: Optional[bytes],
                 wrong_paths: Dict[int, Chain]) -> BlockInputs:
    """Intern every trace position's inputs (see :class:`BlockInputs`).

    ``aliases`` is the trace's :func:`alias_patterns`; ``misses`` holds
    1 for every memory node that misses (None for a perfect memory);
    ``wrong_paths`` is a branch stream's chains (empty under perfect
    prediction).
    """
    n_mem = [templates[label].n_mem for label in trace.labels]
    fault_indices = trace.fault_indices
    chain_at = wrong_paths.get
    block_ids = trace.block_ids
    ids = array("i", [0]) * len(block_ids)
    interned: Dict[tuple, int] = {}
    mem_nodes: List[int] = []
    cursor = 0
    for position, block_id in enumerate(block_ids):
        count = n_mem[block_id]
        missed = None
        if count and misses is not None:
            missed = misses[cursor:cursor + count]
        cursor += count
        key = (block_id, fault_indices[position], chain_at(position),
               aliases[position], missed)
        found = interned.get(key)
        if found is None:
            found = interned[key] = len(mem_nodes)
            mem_nodes.append(count)
        ids[position] = found
    return BlockInputs(_narrow(ids, len(mem_nodes)), mem_nodes)


class IssuePlan:
    """One block's dynamic issue shape under one issue model.

    ``nodes`` holds ``(cls, dest, srcs, offset, index)`` in issue order,
    where ``cls`` is ``T_LOAD``, ``T_STORE``, ``T_SYSCALL`` or ``T_ALU``
    (every other class takes an ALU slot) and ``offset`` is the node's
    issue cycle relative to the fetch cycle the block opens at: the
    sequential model issues its first node in that cycle, wider models
    open their first word one cycle later.  ``words`` is how far the
    block advances fetch: its issue words, or its datapath nodes on the
    sequential model.  A branch or syscall is always a block's last
    node (it is the terminator).
    """

    __slots__ = ("label", "nodes", "words", "n_datapath", "has_branch",
                 "fault_targets")

    def __init__(self, tmpl: BlockTemplate, issue: IssueModel):
        self.label = tmpl.label
        self.n_datapath = tmpl.n_datapath
        self.has_branch = tmpl.has_branch
        self.fault_targets = tmpl.fault_targets
        nodes = []
        words = 0
        mem_left = alu_left = 0
        for index, (cls, dest, srcs) in enumerate(tmpl.nodes):
            is_mem = cls == T_LOAD or cls == T_STORE
            if cls == T_SYSCALL:
                offset = words  # no slot: issues with the open word
            elif issue.sequential:
                offset = words
                words += 1
            else:
                # Each block opens a fresh word at its first node.
                left = mem_left if is_mem else alu_left
                if left <= 0:
                    words += 1
                    mem_left = issue.mem_slots
                    alu_left = issue.alu_slots
                if is_mem:
                    mem_left -= 1
                else:
                    alu_left -= 1
                offset = words
            kind = cls if is_mem or cls == T_SYSCALL else T_ALU
            nodes.append((kind, dest, srcs, offset, index))
        self.nodes = tuple(nodes)
        self.words = words


class WordPlan:
    """One list- or exactly-scheduled block, flattened for the static engine.

    ``words`` holds ``(srcs, ops, has_branch)`` per issue word: the
    de-duplicated source registers of the word's nodes, the nodes as
    ``(cls, dest, mem_rank)`` in word order (``cls`` folded as in
    :class:`IssuePlan`; ``mem_rank`` indexes the block's trace
    addresses, -1 for non-memory nodes), and whether the word holds the
    block's branch.  ``probes`` lists the memory nodes as ``(mem_rank,
    is_load)`` in schedule order.  ``faults`` maps each assert's node
    index to ``(words, datapath, loads, stores)``: the words issued
    through the one holding it, and the nodes of each kind those words
    carry (so its first ``loads + stores`` probes).
    """

    __slots__ = ("words", "n_datapath", "n_mem", "loads", "stores",
                 "has_branch", "faults", "first_word_nodes", "probes")

    def __init__(self, tmpl: BlockTemplate, sched: ScheduledBlock):
        self.n_datapath = tmpl.n_datapath
        self.n_mem = tmpl.n_mem
        self.has_branch = tmpl.has_branch
        self.first_word_nodes = len(sched.words[0]) if sched.words else 0
        nodes = tmpl.nodes
        words = []
        probes = []
        faults = {}
        datapath = loads = stores = 0
        for word in sched.words:
            srcs: Dict[int, None] = {}
            ops = []
            for index in word:
                cls, dest, node_srcs = nodes[index]
                srcs.update(dict.fromkeys(node_srcs))
                if cls == T_LOAD or cls == T_STORE:
                    ops.append((cls, dest, sched.mem_rank[index]))
                    probes.append((sched.mem_rank[index], cls == T_LOAD))
                    loads += cls == T_LOAD
                    stores += cls == T_STORE
                else:
                    ops.append((cls if cls == T_SYSCALL else T_ALU, dest, -1))
                datapath += cls != T_SYSCALL
            words.append((tuple(srcs), tuple(ops),
                          any(nodes[index][0] == T_BRANCH for index in word)))
            for index in word:
                if nodes[index][0] == T_ASSERT:
                    faults[index] = (len(words), datapath, loads, stores)
        self.words = tuple(words)
        self.probes = tuple(probes)
        self.loads = loads
        self.stores = stores
        self.faults = faults


class TraceStreams:
    """Memo of one (templates, trace) pair's streams and plans."""

    def __init__(self, templates: Dict[str, BlockTemplate], trace: Trace):
        self.templates = templates
        self.trace = trace
        self._memory: Dict[str, MemoryStream] = {}
        self._branches: Dict[Tuple[str, bool], BranchStream] = {}
        self._values: Dict[str, ValueStream] = {}
        self._inputs: Dict[tuple, BlockInputs] = {}
        self._aliases: Optional[array] = None
        self._issue_plans: Dict[int, Dict[str, IssuePlan]] = {}
        #: id(schedules) -> (schedules, plans); holding the schedules
        #: keeps their id from being reused by another dict.
        self._word_plans: Dict[int, Tuple[Dict[str, ScheduledBlock],
                                          Dict[str, WordPlan]]] = {}
        self._wordless_inside: Optional[bool] = None

    def memory(self, memory: MemoryConfig) -> MemoryStream:
        stream = self._memory.get(memory.letter)
        if stream is None:
            stream = memory_stream(self.templates, self.trace, memory)
            self._memory[memory.letter] = stream
        return stream

    def branches(self, kind: str, static_hints: bool) -> BranchStream:
        key = (kind, static_hints)
        stream = self._branches.get(key)
        if stream is None:
            stream = branch_stream(self.templates, self.trace, kind,
                                   static_hints)
            self._branches[key] = stream
        return stream

    def values(self, kind: str) -> ValueStream:
        stream = self._values.get(kind)
        if stream is None:
            stream = value_stream(self.templates, self.trace, kind)
            self._values[kind] = stream
        return stream

    def inputs(self, memory: Optional[MemoryConfig],
               branch: Optional[Tuple[str, bool]]) -> BlockInputs:
        """Block inputs under ``memory`` (None: no misses) and the
        ``(predictor, static hints)`` branch stream (None: no wrong
        paths)."""
        cached = memory is not None and not memory.is_perfect
        key = (memory.letter if cached else None, branch)
        found = self._inputs.get(key)
        if found is None:
            misses = None
            if cached:
                misses = bytes(self.memory(memory).outcomes).translate(
                    _MISS_ONLY)
            wrong_paths = (self.branches(*branch).wrong_paths
                           if branch is not None else {})
            if self._aliases is None:
                self._aliases = alias_patterns(self.templates, self.trace)
            found = block_inputs(self.templates, self.trace, self._aliases,
                                 misses, wrong_paths)
            self._inputs[key] = found
        return found

    def wordless_inside(self) -> bool:
        """Whether a block with no datapath node (a lone syscall, which
        opens no issue word) runs before the trace's last block."""
        if self._wordless_inside is None:
            head = self.trace.block_ids[:-1]
            self._wordless_inside = any(
                not self.templates[label].n_datapath and block_id in head
                for block_id, label in enumerate(self.trace.labels))
        return self._wordless_inside

    def issue_plans(self, issue: IssueModel) -> Dict[str, IssuePlan]:
        plans = self._issue_plans.get(issue.index)
        if plans is None:
            plans = {label: IssuePlan(tmpl, issue)
                     for label, tmpl in self.templates.items()}
            self._issue_plans[issue.index] = plans
        return plans

    def word_plans(self, schedules: Dict[str, ScheduledBlock],
                   ) -> Dict[str, WordPlan]:
        entry = self._word_plans.get(id(schedules))
        if entry is None or entry[0] is not schedules:
            templates = self.templates
            entry = (schedules, {label: WordPlan(templates[label], sched)
                                 for label, sched in schedules.items()})
            self._word_plans[id(schedules)] = entry
        return entry[1]
