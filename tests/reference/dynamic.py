"""The dynamically scheduled (restricted-dataflow) timing engine.

Replays a functional trace against an HPS-style machine: nodes are issued
in program order in multi-node words, decoupled immediately, and
scheduled to function units as their operands (registers and memory
locations) become ready -- an unlimited-renaming dataflow model with
per-cycle function-unit limits equal to the issue-word shape, a window
bounded in *active basic blocks*, in-order block retirement, speculative
fetch past predicted branches, and full squash on mispredictions and
enlarged-block faults.

Modelling notes (documented deltas from real hardware, see DESIGN.md):

* cache probes happen in issue order rather than execution order;
* wrong-path memory operations see hit latency and do not pollute the
  cache;
* squashed nodes do not release the function-unit slots they reserved
  before the squash (slots for nodes that would execute after the squash
  are never reserved).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from ..interp.trace import TAKEN, Trace
from ..isa.ops import NodeKind
from ..stats.results import SimResult
from ..telemetry.collector import (
    Collector,
    NULL_COLLECTOR,
    TID_CONTROL,
    TID_MEM,
    finalize_attribution,
)
from ..predict import make_value_predictor
from .cache import MemorySystem
from .config import BranchMode, MachineConfig
from .errors import EngineDivergence, SimulationHang, resolve_max_cycles
from .predictor import BranchPredictor, make_predictor
from .templates import (
    BlockTemplate,
    T_ASSERT,
    T_BRANCH,
    T_LOAD,
    T_STORE,
    T_SYSCALL,
)

#: Cycles between a resolving squash and the start of correct-path fetch
#: (the first issue word opens one cycle later).
REDIRECT_PENALTY = 1

#: Fetch budget for one wrong-path excursion, in blocks.
_WRONG_PATH_BLOCK_LIMIT = 64

#: Prune the per-cycle slot tables when they grow past this many entries.
_SLOT_PRUNE_THRESHOLD = 1_000_000


class DynamicEngine:
    """One trace replay on one dynamic machine configuration."""

    def __init__(self, templates: Dict[str, BlockTemplate], trace: Trace,
                 config: MachineConfig, benchmark: str = "",
                 collector: Collector = NULL_COLLECTOR,
                 max_cycles: Optional[int] = None, self_check: bool = True):
        self.templates = templates
        self.trace = trace
        self.config = config
        self.benchmark = benchmark
        self.collector = collector
        issue = config.issue
        self.sequential = issue.sequential
        self.mem_limit = issue.mem_slots
        self.alu_limit = issue.alu_slots
        self.window = config.window_blocks
        self.perfect = config.branch_mode is BranchMode.PERFECT
        #: data speculation: deliver confident load-value predictions to
        #: dependents early; verify on real completion (DESIGN.md §16).
        self.value_spec = config.value_predictor != "none"
        #: watchdog: raise SimulationHang past this simulated cycle.
        self.max_cycles = resolve_max_cycles(max_cycles)
        #: verify engine accounting against the functional trace.
        self.self_check = self_check

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        templates = self.templates
        trace = self.trace
        tmpl_of: List[BlockTemplate] = [templates[label] for label in trace.labels]
        block_ids = trace.block_ids
        outcomes = trace.outcomes
        fault_indices = trace.fault_indices
        addresses = trace.addresses

        memsys = MemorySystem(self.config.memory_config)
        predictor = make_predictor(self.config.predictor, self.config.static_hints)
        perfect = self.perfect
        sequential = self.sequential
        mem_limit = self.mem_limit
        alu_limit = self.alu_limit
        window_size = self.window
        collector = self.collector
        tracing = collector.tracing
        attributing = collector.enabled
        hit_latency = self.config.memory_config.hit_cycles

        reg_ready = [0] * 64
        store_time: Dict[int, int] = {}
        load_time: Dict[int, int] = {}
        alu_used: Dict[int, int] = {}
        mem_used: Dict[int, int] = {}

        # Value speculation (DESIGN.md §16).  A confident prediction for
        # a load delivers its value one cycle after issue; verification
        # happens at the load's real completion.  A *wrong* delivered
        # value poisons the destination register: `spec_avail[reg]` is
        # when the wrong value became available, `spec_verify[reg]` when
        # the squash resolves it, and any dependent that would have
        # consumed the poisoned value before its verify burns a wasted
        # function-unit slot and replays -- propagating the poison one
        # level down the dependent subtree.
        value_spec = self.value_spec
        vp = None
        vp_perfect = False
        load_values: List[int] = []
        val_cursor = 0
        spec_avail: Dict[int, int] = {}
        spec_verify: Dict[int, int] = {}
        vr_replays = 0
        replay_nodes: set = set()
        if value_spec:
            vp = make_value_predictor(self.config.value_predictor)
            vp_perfect = vp.perfect
            load_values = trace.load_values
            if not load_values and any(
                node[0] == T_LOAD for t in tmpl_of for node in t.nodes
            ):
                raise ValueError(
                    "value prediction needs a trace with recorded load"
                    " values; re-prepare the workload's artifacts"
                )

        fetch_cycle = 0
        word_mem_left = 0
        word_alu_left = 0
        window_retires: deque = deque()

        # Cycle attribution (ATTRIBUTION_BUCKETS).  `acct` is a
        # monotonic accounting cursor: every cycle in [1, acct] has been
        # charged to exactly one bucket.  Fetch-gap cycles are classified
        # by two absolute-cycle markers -- `recover_until` (set at squash
        # redirects) and `window_until` (set when the window gate holds
        # fetch) -- applied recovery-first at the next word open.
        # `window_mem` mirrors `window_retires` and remembers what kind
        # of node a window entry's straggler was (0 = ALU, 1 = memory
        # op, 2 = value-squash replay), so a window-gate wait on a
        # straggling load reads as memory-wait and a wait on a replayed
        # dependent reads as value-recovery.
        acct = 0
        b_issued = b_stall = b_mem = b_recover = b_value = 0
        recover_until = 0
        window_until = 0
        window_wait_kind = 0
        window_mem: deque = deque()

        def _charge_issue(f: int) -> None:
            """Charge the issue cycle ``f`` and classify the gap to it."""
            nonlocal acct, b_issued, b_stall, b_mem, b_recover, b_value
            if f <= acct:
                return  # already charged (fetch re-covered old cycles)
            lo = acct
            hi = f - 1
            if recover_until > lo:
                take = (recover_until if recover_until < hi else hi) - lo
                if take > 0:
                    b_recover += take
                    lo += take
            if window_until > lo:
                take = (window_until if window_until < hi else hi) - lo
                if take > 0:
                    if window_wait_kind == 2:
                        b_value += take
                    elif window_wait_kind == 1:
                        b_mem += take
                    else:
                        b_stall += take
                    lo += take
            if hi > lo:
                b_stall += hi - lo
            b_issued += 1
            acct = f

        retired_nodes = 0
        discarded_nodes = 0
        faults = 0
        prev_retire = 0
        max_cycle = 0
        addr_cursor = 0
        issue_words = 0
        issued_slots = 0
        window_block_cycles = 0
        window_samples = 0
        exec_times: List[int] = []

        watchdog_limit = self.max_cycles

        for position in range(len(block_ids)):
            tmpl = tmpl_of[block_ids[position]]

            # Watchdog: one comparison per block bounds any runaway
            # scheduling loop without touching the per-node hot path.
            if fetch_cycle > watchdog_limit:
                raise SimulationHang(
                    self.benchmark, str(self.config), fetch_cycle,
                    watchdog_limit,
                )

            # Window gating: a new block may not begin issue until the
            # block `window_size` older has retired (or been squashed).
            if len(window_retires) >= window_size:
                freed = window_retires.popleft()
                freed_kind = window_mem.popleft() if attributing else 0
                if freed + 1 > fetch_cycle:
                    fetch_cycle = freed + 1
                    word_mem_left = 0
                    word_alu_left = 0
                    if attributing:
                        window_until = fetch_cycle
                        window_wait_kind = freed_kind

            occupancy = len(window_retires) + 1
            if occupancy > window_size:
                occupancy = window_size
            window_block_cycles += occupancy
            window_samples += 1
            block_start = fetch_cycle
            if tracing:
                collector.event(
                    "window.occupancy", fetch_cycle, 0, 0,
                    {"blocks": occupancy},
                )

            fault_index = fault_indices[position]
            fault_time = -1
            branch_exec = -1
            block_complete = 0
            del exec_times[:]
            if value_spec:
                replay_nodes.clear()
            # Each basic block is issued as its own unit of work: a new
            # issue word opens at every block boundary.  Small blocks
            # therefore waste issue slots -- the issue-bandwidth problem
            # basic block enlargement exists to solve.
            word_mem_left = 0
            word_alu_left = 0

            for index, (cls, dest, srcs) in enumerate(tmpl.nodes):
                # ---- issue slot -------------------------------------
                if cls != T_SYSCALL:
                    if sequential:
                        issue_cycle = fetch_cycle
                        fetch_cycle += 1
                        issue_words += 1
                        if attributing:
                            _charge_issue(issue_cycle)
                    else:
                        if cls == T_LOAD or cls == T_STORE:
                            if word_mem_left <= 0:
                                fetch_cycle += 1
                                word_mem_left = mem_limit
                                word_alu_left = alu_limit
                                issue_words += 1
                                if attributing:
                                    _charge_issue(fetch_cycle)
                            word_mem_left -= 1
                        else:
                            if word_alu_left <= 0:
                                fetch_cycle += 1
                                word_mem_left = mem_limit
                                word_alu_left = alu_limit
                                issue_words += 1
                                if attributing:
                                    _charge_issue(fetch_cycle)
                            word_alu_left -= 1
                        issue_cycle = fetch_cycle
                    issued_slots += 1
                    if tracing:
                        collector.event(
                            "issue.slot", issue_cycle, 0,
                            TID_MEM if cls == T_LOAD or cls == T_STORE
                            else 0,
                        )
                else:
                    issue_cycle = fetch_cycle

                # ---- operand readiness ------------------------------
                ready = issue_cycle + 1
                for src in srcs:
                    r = reg_ready[src]
                    if r > ready:
                        ready = r

                # ---- schedule to a function unit --------------------
                if cls == T_LOAD:
                    addr = addresses[addr_cursor]
                    addr_cursor += 1
                    word = addr >> 2
                    st = store_time.get(word)
                    if st is not None and st > ready:
                        ready = st
                    t = ready
                    while mem_used.get(t, 0) >= mem_limit:
                        t += 1
                    mem_used[t] = mem_used.get(t, 0) + 1
                    lt = load_time.get(word)
                    if lt is None or t > lt:
                        load_time[word] = t
                    if tracing:
                        wb_before = memsys.wb_hits
                        lat = memsys.load_latency(addr)
                        collector.event(
                            "mem.load", t, lat, TID_MEM,
                            {"addr": addr, "miss": lat > hit_latency,
                             "wb_hit": memsys.wb_hits != wb_before},
                        )
                    else:
                        lat = memsys.load_latency(addr)
                    done = t + lat
                elif cls == T_STORE:
                    addr = addresses[addr_cursor]
                    addr_cursor += 1
                    word = addr >> 2
                    lt = load_time.get(word)
                    if lt is not None and lt > ready:
                        ready = lt
                    st = store_time.get(word)
                    if st is not None and st > ready:
                        ready = st
                    t = ready
                    while mem_used.get(t, 0) >= mem_limit:
                        t += 1
                    mem_used[t] = mem_used.get(t, 0) + 1
                    memsys.store_access(addr)
                    if tracing:
                        collector.event(
                            "mem.store", t, 1, TID_MEM, {"addr": addr}
                        )
                    done = t + 1
                    store_time[word] = done
                elif cls == T_SYSCALL:
                    t = ready
                    done = t + 1
                else:  # ALU, CONTROL, BRANCH, ASSERT
                    t = ready
                    while alu_used.get(t, 0) >= alu_limit:
                        t += 1
                    alu_used[t] = alu_used.get(t, 0) + 1
                    done = t + 1
                    if cls == T_BRANCH:
                        branch_exec = t
                    elif cls == T_ASSERT and index == fault_index:
                        fault_time = t

                if dest >= 0:
                    reg_ready[dest] = done
                exec_times.append(t)
                if done > block_complete:
                    block_complete = done

                # ---- value speculation ------------------------------
                if value_spec:
                    poisoned = False
                    if spec_verify and cls != T_STORE and cls != T_SYSCALL:
                        # Did this node start on a wrong speculative
                        # operand before its verify?  Then it burned a
                        # slot on the wrong value and replays at `t`
                        # (the verified-operand time already charged
                        # above); the wasted early result propagates
                        # the poison one level down.
                        spec_ready = issue_cycle + 1
                        uses_spec = False
                        for src in srcs:
                            sa = spec_avail.get(src)
                            if sa is None:
                                r = reg_ready[src]
                            else:
                                r = sa
                                uses_spec = True
                            if r > spec_ready:
                                spec_ready = r
                        if uses_spec and spec_ready < ready:
                            if cls == T_LOAD:
                                w = spec_ready
                                while mem_used.get(w, 0) >= mem_limit:
                                    w += 1
                                if w < ready:
                                    mem_used[w] = mem_used.get(w, 0) + 1
                            else:
                                w = spec_ready
                                while alu_used.get(w, 0) >= alu_limit:
                                    w += 1
                                if w < ready:
                                    alu_used[w] = alu_used.get(w, 0) + 1
                            if w < ready:
                                vr_replays += 1
                                discarded_nodes += 1
                                replay_nodes.add(index)
                                poisoned = True
                                if dest >= 0:
                                    spec_avail[dest] = w + 1
                                    spec_verify[dest] = done
                                if tracing:
                                    collector.event(
                                        "value.replay", w, 1, TID_MEM
                                        if cls == T_LOAD else 0,
                                        {"block": tmpl.label,
                                         "node": index},
                                    )
                    if cls == T_LOAD:
                        actual = load_values[val_cursor]
                        val_cursor += 1
                        if vp_perfect:
                            vp.lookups += 1
                            predicted: Optional[int] = actual
                        else:
                            predicted = vp.predict(
                                "%s#%d" % (tmpl.label, index)
                            )
                        if predicted is not None:
                            # The predicted value is in hand one cycle
                            # after issue -- always strictly before the
                            # real completion `done` (t >= issue+1 and
                            # lat >= 1, so done >= issue+2).
                            spec_done = issue_cycle + 1
                            if predicted == actual:
                                reg_ready[dest] = spec_done
                                poisoned = False
                            else:
                                spec_avail[dest] = spec_done
                                spec_verify[dest] = done
                                poisoned = True
                            if tracing:
                                collector.event(
                                    "value.verify", done, 0, TID_MEM,
                                    {"block": tmpl.label, "node": index,
                                     "confirmed": predicted == actual},
                                )
                        if vp_perfect:
                            vp.update("", actual, actual)
                        else:
                            vp.update(
                                "%s#%d" % (tmpl.label, index),
                                actual, predicted,
                            )
                    # A clean (non-speculative) write supersedes any
                    # stale poison on the destination register.
                    if dest >= 0 and not poisoned and spec_avail:
                        if spec_avail.pop(dest, None) is not None:
                            del spec_verify[dest]

            # ---- end of block: faults, branches, retirement ---------
            if fault_time >= 0:
                # The whole block is discarded.  Nodes that reached a
                # function unit by the fault's resolution count as
                # executed-but-not-retired work.
                faults += 1
                block_discarded = 0
                for index, t in enumerate(exec_times):
                    if t <= fault_time and tmpl.nodes[index][0] != T_SYSCALL:
                        block_discarded += 1
                discarded_nodes += block_discarded
                if tracing:
                    collector.event(
                        "block.fault", fault_time, 0, TID_CONTROL,
                        {"block": tmpl.label, "discarded": block_discarded},
                    )
                if not perfect:
                    discarded_nodes += self._wrong_path_issue(
                        self._predicted_successor(tmpl, predictor),
                        fetch_cycle + 1,
                        fault_time + 1,
                        window_retires,
                        reg_ready,
                        predictor,
                        alu_used,
                        mem_used,
                    )
                fetch_cycle = fault_time + REDIRECT_PENALTY
                word_mem_left = 0
                word_alu_left = 0
                window_retires.append(fault_time)
                if attributing:
                    window_mem.append(0)  # the assert is an ALU op
                    if fetch_cycle > recover_until:
                        recover_until = fetch_cycle
                if fault_time > max_cycle:
                    max_cycle = fault_time
                continue

            if tmpl.has_branch:
                actual_taken = outcomes[position] == TAKEN
                if perfect:
                    predicted = actual_taken
                else:
                    predicted = predictor.predict(tmpl.label, tmpl.static_hint)
                    predictor.update(tmpl.label, actual_taken, predicted)
                if tracing:
                    collector.event(
                        "branch.resolve", branch_exec, 0, TID_CONTROL,
                        {"block": tmpl.label, "taken": actual_taken,
                         "mispredict": predicted != actual_taken},
                    )
                if predicted != actual_taken:
                    wrong_target = (
                        tmpl.branch_taken if predicted else tmpl.branch_alt
                    )
                    discarded_nodes += self._wrong_path_issue(
                        wrong_target,
                        fetch_cycle + 1,
                        branch_exec + 1,
                        window_retires,
                        reg_ready,
                        predictor,
                        alu_used,
                        mem_used,
                    )
                    fetch_cycle = branch_exec + REDIRECT_PENALTY
                    word_mem_left = 0
                    word_alu_left = 0
                    if attributing and fetch_cycle > recover_until:
                        recover_until = fetch_cycle

            retire = block_complete if block_complete > prev_retire else prev_retire
            prev_retire = retire
            # The window slot is reclaimed once every node of the block has
            # been *scheduled* (dispatched to a function unit) -- the node
            # table entries, not the retirement commit, are what bounds
            # fetch in an HPS-style machine.  Retirement stays in order for
            # the statistics above.
            last_scheduled = max(exec_times) if exec_times else fetch_cycle
            window_retires.append(last_scheduled)
            if attributing:
                if exec_times:
                    straggler = max(
                        range(len(exec_times)), key=exec_times.__getitem__
                    )
                    scls = tmpl.nodes[straggler][0]
                    if value_spec and straggler in replay_nodes:
                        window_mem.append(2)
                    elif scls == T_LOAD or scls == T_STORE:
                        window_mem.append(1)
                    else:
                        window_mem.append(0)
                else:
                    window_mem.append(0)
            retired_nodes += tmpl.n_datapath
            if retire > max_cycle:
                max_cycle = retire
            if tracing:
                collector.event(
                    "block.retire", block_start,
                    max(block_complete - block_start, 1), TID_CONTROL,
                    {"block": tmpl.label, "nodes": tmpl.n_datapath},
                )

            # Keep the per-cycle slot tables bounded.
            if len(alu_used) > _SLOT_PRUNE_THRESHOLD:
                horizon = fetch_cycle
                alu_used = {c: n for c, n in alu_used.items() if c >= horizon}
                mem_used = {c: n for c, n in mem_used.items() if c >= horizon}

        # Cross-engine invariant: every trace block either retires or
        # faults, so the retired datapath-node count must match the
        # functional run's.  A divergence means the replay is wrong.
        if self.self_check and retired_nodes != trace.retired_nodes:
            raise EngineDivergence(
                self.benchmark, str(self.config), retired_nodes,
                trace.retired_nodes,
            )

        cache = memsys.cache
        total_cycles = max(max_cycle, 1)
        extra: Dict[str, float] = {}
        if attributing:
            buckets = {
                "issued_full": b_issued,
                "issue_stall": b_stall,
                "memory_wait": b_mem,
                "mispredict_recovery": b_recover,
                "value_recovery": b_value,
                "drain_idle": 0,
            }
            finalize_attribution(buckets, total_cycles, acct)
            for name, value in buckets.items():
                collector.count("cycles.dynamic." + name, value)
                extra["attr." + name] = float(value)
            collector.count("branch.lookups", predictor.lookups)
            collector.count("branch.mispredicts", predictor.mispredicts)
            if value_spec:
                collector.count("value.predictions", vp.predictions)
                collector.count("value.confirmed", vp.confirmed)
                collector.count("value.squashed", vp.squashed)
                collector.count("value.replays", vr_replays)
        return SimResult(
            benchmark=self.benchmark,
            config=self.config,
            cycles=total_cycles,
            retired_nodes=retired_nodes,
            discarded_nodes=discarded_nodes,
            dynamic_blocks=len(block_ids),
            mispredicts=predictor.mispredicts,
            branch_lookups=predictor.lookups,
            faults=faults,
            loads=memsys.load_count,
            stores=memsys.store_count,
            cache_accesses=cache.accesses if cache else 0,
            cache_misses=cache.misses if cache else 0,
            write_buffer_hits=memsys.wb_hits,
            issue_words=issue_words,
            issued_slots=issued_slots,
            window_block_cycles=window_block_cycles,
            window_samples=window_samples,
            value_predictions=vp.predictions if vp is not None else 0,
            value_confirmed=vp.confirmed if vp is not None else 0,
            value_squashed=vp.squashed if vp is not None else 0,
            value_replays=vr_replays,
            extra=extra,
        )

    # ------------------------------------------------------------------
    def _predicted_successor(self, tmpl: BlockTemplate,
                             predictor: BranchPredictor) -> Optional[str]:
        """Where fetch would go after ``tmpl`` on the predicted path."""
        if tmpl.has_branch:
            taken = predictor.peek(tmpl.label, tmpl.static_hint)
            return tmpl.branch_taken if taken else tmpl.branch_alt
        if tmpl.term_kind in (NodeKind.JUMP, NodeKind.CALL):
            return tmpl.control_target
        if tmpl.term_kind is NodeKind.SYSCALL:
            return tmpl.control_target  # None for EXIT
        return None  # RET: the return stack redirects; treat as fetch stall

    def _wrong_path_issue(self, start_label: Optional[str], start_cycle: int,
                          until_cycle: int, window_retires: deque,
                          reg_ready: List[int], predictor: BranchPredictor,
                          alu_used: Dict[int, int],
                          mem_used: Dict[int, int]) -> int:
        """Issue and schedule wrong-path work; returns nodes executed.

        Wrong-path nodes consume issue bandwidth and function-unit slots
        until the squash at ``until_cycle``; their register results live
        in an overlay so the architectural ready times are untouched.
        """
        if start_label is None or start_cycle > until_cycle:
            return 0
        sequential = self.sequential
        mem_limit = self.mem_limit
        alu_limit = self.alu_limit
        window_size = self.window
        templates = self.templates

        overlay: Dict[int, int] = {}
        executed = 0
        cycle = start_cycle
        word_mem_left = 0
        word_alu_left = 0
        label = start_label
        blocks_fetched = 0
        hit_latency = self.config.memory_config.hit_cycles

        while label is not None and cycle <= until_cycle:
            blocks_fetched += 1
            if blocks_fetched > _WRONG_PATH_BLOCK_LIMIT:
                break
            # Window room: real unretired blocks plus wrong-path blocks.
            active_real = sum(1 for r in window_retires if r > cycle) + 1
            if active_real + blocks_fetched - 1 >= window_size:
                break
            tmpl = templates.get(label)
            if tmpl is None:
                break
            word_mem_left = 0  # each block opens a fresh issue word
            word_alu_left = 0
            for cls, dest, srcs in tmpl.nodes:
                if cls == T_SYSCALL:
                    continue
                if sequential:
                    issue_cycle = cycle
                    cycle += 1
                else:
                    if cls == T_LOAD or cls == T_STORE:
                        if word_mem_left <= 0:
                            cycle += 1
                            word_mem_left = mem_limit
                            word_alu_left = alu_limit
                        word_mem_left -= 1
                    else:
                        if word_alu_left <= 0:
                            cycle += 1
                            word_mem_left = mem_limit
                            word_alu_left = alu_limit
                        word_alu_left -= 1
                    issue_cycle = cycle
                if issue_cycle > until_cycle:
                    return executed
                ready = issue_cycle + 1
                for src in srcs:
                    r = overlay.get(src)
                    if r is None:
                        r = reg_ready[src]
                    if r > ready:
                        ready = r
                if cls == T_LOAD or cls == T_STORE:
                    t = ready
                    while mem_used.get(t, 0) >= mem_limit:
                        t += 1
                    if t <= until_cycle:
                        mem_used[t] = mem_used.get(t, 0) + 1
                        executed += 1
                    done = t + (hit_latency if cls == T_LOAD else 1)
                else:
                    t = ready
                    while alu_used.get(t, 0) >= alu_limit:
                        t += 1
                    if t <= until_cycle:
                        alu_used[t] = alu_used.get(t, 0) + 1
                        executed += 1
                    done = t + 1
                if dest >= 0:
                    overlay[dest] = done
            label = self._predicted_successor(tmpl, predictor)
        return executed
