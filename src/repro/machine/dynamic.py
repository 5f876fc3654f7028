"""The dynamically scheduled (restricted-dataflow) timing engine.

Replays a functional trace against an HPS-style machine: nodes are issued
in program order in multi-node words, decoupled immediately, and
scheduled to function units as their operands (registers and memory
locations) become ready -- an unlimited-renaming dataflow model with
per-cycle function-unit limits equal to the issue-word shape, a window
bounded in *active basic blocks*, in-order block retirement, speculative
fetch past predicted branches, and full squash on mispredictions and
enlarged-block faults.

The engine keeps only the state its timing model needs.  Everything
that depends on the trace but not on the issue model or the window is
read from the trace's streams (:mod:`.streams`): each memory node's
hit, write-buffer hit or miss; which branches mispredict and the chain
of blocks each wrong path fetches; each load's value-prediction
outcome; and each block's issue-word offsets.  Function-unit slots are
bytearrays indexed by cycle.

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
from ..stats.results import SimResult
from ..telemetry.collector import (
    Collector,
    NULL_COLLECTOR,
    TID_CONTROL,
    TID_MEM,
    finalize_attribution,
)
from .config import BranchMode, MachineConfig
from .errors import EngineDivergence, SimulationHang, resolve_max_cycles
from .streams import (
    MEM_WB_HIT,
    VALUE_CONFIRMED,
    Chain,
    IssuePlan,
    TraceStreams,
)
from .templates import BlockTemplate, T_ALU, T_LOAD, T_STORE, T_SYSCALL

#: Cycles between a resolving squash and the start of correct-path fetch
#: (the first issue word opens one cycle later).
REDIRECT_PENALTY = 1

#: Initial length of the per-cycle slot tables (they double on demand).
_SLOT_TABLE_CYCLES = 1 << 16


class DynamicEngine:
    """One trace replay on one dynamic machine configuration."""

    def __init__(self, templates: Dict[str, BlockTemplate], trace: Trace,
                 config: MachineConfig, benchmark: str = "",
                 collector: Collector = NULL_COLLECTOR,
                 max_cycles: Optional[int] = None):
        self.templates = templates
        self.trace = trace
        self.config = config
        self.benchmark = benchmark
        self.collector = collector
        issue = config.issue
        self.mem_limit = issue.mem_slots
        self.alu_limit = issue.alu_slots
        self.window = config.window_blocks
        self.perfect = config.branch_mode is BranchMode.PERFECT
        #: data speculation: deliver confident load-value predictions to
        #: dependents early; verify on real completion (DESIGN.md §16).
        self.value_spec = config.value_predictor != "none"
        #: watchdog: raise SimulationHang past this simulated cycle.
        self.max_cycles = resolve_max_cycles(max_cycles)
        #: the trace's streams; ``simulate`` shares its prepared
        #: workload's, and ``run`` builds its own when left None.
        self.streams: Optional[TraceStreams] = None

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        config = self.config
        trace = self.trace
        streams = self.streams
        if streams is None:
            streams = TraceStreams(self.templates, trace)
        plans = streams.issue_plans(config.issue)
        plan_of: List[IssuePlan] = [plans[label] for label in trace.labels]
        memory = streams.memory(config.memory_config)
        perfect = self.perfect
        # Perfect prediction consults no predictor: no lookups, no
        # mispredicts, no wrong paths.
        branches = (None if perfect else
                    streams.branches(config.predictor, config.static_hints))
        wrong_paths: Dict[int, Chain] = (
            branches.wrong_paths if branches is not None else {})
        value_spec = self.value_spec
        values = (streams.values(config.value_predictor) if value_spec
                  else None)

        block_ids = trace.block_ids
        outcomes = trace.outcomes
        fault_indices = trace.fault_indices
        addresses = trace.addresses
        mem_codes = memory.outcomes
        value_codes = values.outcomes if values is not None else b""
        mem_limit = self.mem_limit
        alu_limit = self.alu_limit
        window_size = self.window
        collector = self.collector
        tracing = collector.tracing
        attributing = collector.enabled
        memory_config = config.memory_config
        hit_latency = memory_config.hit_cycles
        latency_of = (hit_latency, hit_latency, memory_config.miss_cycles)

        reg_ready = [0] * 64
        store_time: Dict[int, int] = {}
        load_time: Dict[int, int] = {}

        # Function-unit slots used per cycle.  No node of a block, and no
        # slot search one starts, reaches past max(fetch cycle, latest
        # completion so far) + words + 1 + (latency + 1) per node, so
        # before each block the tables grow to cover its worst case.
        max_latency = max(latency_of)
        slack = 2 + max(
            (plan.words + len(plan.nodes) * (max_latency + 1)
             for plan in plan_of), default=0)
        size = _SLOT_TABLE_CYCLES
        alu_used = bytearray(size)
        mem_used = bytearray(size)
        top = 0  # latest completion of any real node so far

        # Value speculation (DESIGN.md §16).  A confident prediction for
        # a load delivers its value one cycle after issue; verification
        # happens at the load's real completion.  A *wrong* delivered
        # value poisons the destination register: `spec_avail[reg]` is
        # when the wrong value became available, `spec_verify[reg]` when
        # the squash resolves it, and any dependent that would have
        # consumed the poisoned value before its verify burns a wasted
        # function-unit slot and replays -- propagating the poison one
        # level down the dependent subtree.
        val_cursor = 0
        spec_avail: Dict[int, int] = {}
        spec_verify: Dict[int, int] = {}
        vr_replays = 0
        replay_nodes: set = set()

        fetch_cycle = 0
        window_retires: deque = deque()

        # Cycle attribution (ATTRIBUTION_BUCKETS).  `acct` is a
        # monotonic accounting cursor: every cycle in [1, acct] has been
        # charged to exactly one bucket.  Fetch-gap cycles are classified
        # by two absolute-cycle markers -- `recover_until` (set at squash
        # redirects) and `window_until` (set when the window gate holds
        # fetch) -- applied recovery-first when a block's words open.
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
        # The sequential model issues its first node in the fetch cycle
        # itself; wider models open their first word one cycle later.
        first_word = 0 if config.issue.sequential else 1

        def _charge_words(first: int, count: int) -> None:
            """Charge issue cycles ``first``..``first + count - 1`` (one
            word each) and classify the gap before them."""
            nonlocal acct, b_issued, b_stall, b_mem, b_recover, b_value
            last = first + count - 1
            if last <= acct:
                return  # already charged (fetch re-covered old cycles)
            if first <= acct:
                first = acct + 1
            lo = acct
            hi = first - 1
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
            b_issued += last - first + 1
            acct = last

        retired_nodes = 0
        discarded_nodes = 0
        faults = 0
        prev_retire = 0
        max_cycle = 0
        mem_cursor = 0
        issue_words = 0
        issued_slots = 0
        window_block_cycles = 0
        # Per-node execution cycles, kept only for a faulting block (to
        # count what it discards) or for attribution (its straggler).
        exec_times: List[int] = []

        watchdog_limit = self.max_cycles

        for position in range(len(block_ids)):
            plan = plan_of[block_ids[position]]

            # Watchdog: one comparison per block bounds any runaway
            # scheduling loop without touching the per-node hot path.
            if fetch_cycle > watchdog_limit:
                raise SimulationHang(
                    self.benchmark, str(config), fetch_cycle,
                    watchdog_limit,
                )

            # Window gating: a new block may not begin issue until the
            # block `window_size` older has retired (or been squashed).
            if len(window_retires) >= window_size:
                freed = window_retires.popleft()
                freed_kind = window_mem.popleft() if attributing else 0
                if freed + 1 > fetch_cycle:
                    fetch_cycle = freed + 1
                    if attributing:
                        window_until = fetch_cycle
                        window_wait_kind = freed_kind

            occupancy = len(window_retires) + 1
            if occupancy > window_size:
                occupancy = window_size
            window_block_cycles += occupancy
            block_start = fetch_cycle
            if tracing:
                collector.event(
                    "window.occupancy", fetch_cycle, 0, 0,
                    {"blocks": occupancy},
                )

            fault_index = fault_indices[position]
            faulting = fault_index >= 0 and fault_index in plan.fault_targets
            record = faulting or attributing
            if record:
                del exec_times[:]
            if value_spec:
                replay_nodes.clear()
            horizon = (top if top > fetch_cycle else fetch_cycle) + slack
            if horizon >= size:
                while horizon >= size:
                    size *= 2
                alu_used.extend(bytes(size - len(alu_used)))
                mem_used.extend(bytes(size - len(mem_used)))

            # Each basic block is issued as its own unit of work: a new
            # issue word opens at every block boundary.  Small blocks
            # therefore waste issue slots -- the issue-bandwidth problem
            # basic block enlargement exists to solve.
            words = plan.words
            if attributing and words:
                _charge_words(fetch_cycle + first_word, words)
            issue_words += words
            issued_slots += plan.n_datapath
            label = plan.label
            base = fetch_cycle + 1  # + offset: one past the node's issue
            last_exec = -1
            load_complete = 0
            t = 0

            for cls, dest, srcs, offset, index in plan.nodes:
                ready = base + offset
                if tracing and cls != T_SYSCALL:
                    collector.event(
                        "issue.slot", ready - 1, 0,
                        TID_MEM if cls == T_LOAD or cls == T_STORE else 0,
                    )
                # ---- operand readiness ------------------------------
                for src in srcs:
                    r = reg_ready[src]
                    if r > ready:
                        ready = r

                # ---- schedule to a function unit --------------------
                if cls == T_ALU:  # ALU, control, branch, assert
                    t = ready
                    while alu_used[t] >= alu_limit:
                        t += 1
                    alu_used[t] += 1
                    done = t + 1
                elif cls == T_LOAD:
                    addr = addresses[mem_cursor]
                    word = addr >> 2
                    st = store_time.get(word)
                    if st is not None and st > ready:
                        ready = st
                    t = ready
                    while mem_used[t] >= mem_limit:
                        t += 1
                    mem_used[t] += 1
                    lt = load_time.get(word)
                    if lt is None or t > lt:
                        load_time[word] = t
                    code = mem_codes[mem_cursor]
                    mem_cursor += 1
                    lat = latency_of[code]
                    if tracing:
                        collector.event(
                            "mem.load", t, lat, TID_MEM,
                            {"addr": addr, "miss": lat > hit_latency,
                             "wb_hit": code == MEM_WB_HIT},
                        )
                    done = t + lat
                    if done > load_complete:
                        load_complete = done
                elif cls == T_STORE:
                    addr = addresses[mem_cursor]
                    mem_cursor += 1
                    word = addr >> 2
                    lt = load_time.get(word)
                    if lt is not None and lt > ready:
                        ready = lt
                    st = store_time.get(word)
                    if st is not None and st > ready:
                        ready = st
                    t = ready
                    while mem_used[t] >= mem_limit:
                        t += 1
                    mem_used[t] += 1
                    if tracing:
                        collector.event(
                            "mem.store", t, 1, TID_MEM, {"addr": addr}
                        )
                    done = t + 1
                    store_time[word] = done
                else:  # T_SYSCALL: no function unit
                    t = ready
                    done = t + 1

                if dest >= 0:
                    reg_ready[dest] = done
                if t > last_exec:
                    last_exec = t
                if record:
                    exec_times.append(t)

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
                        spec_ready = base + offset
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
                            used = mem_used if cls == T_LOAD else alu_used
                            limit = mem_limit if cls == T_LOAD else alu_limit
                            w = spec_ready
                            while w < ready and used[w] >= limit:
                                w += 1
                            if w < ready:
                                used[w] += 1
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
                                        {"block": label, "node": index},
                                    )
                    if cls == T_LOAD:
                        code = value_codes[val_cursor]
                        val_cursor += 1
                        if code:
                            # The predicted value is in hand one cycle
                            # after issue -- always strictly before the
                            # real completion `done` (t >= issue+1 and
                            # lat >= 1, so done >= issue+2).
                            spec_done = base + offset
                            if code == VALUE_CONFIRMED:
                                reg_ready[dest] = spec_done
                                poisoned = False
                            else:
                                spec_avail[dest] = spec_done
                                spec_verify[dest] = done
                                poisoned = True
                            if tracing:
                                collector.event(
                                    "value.verify", done, 0, TID_MEM,
                                    {"block": label, "node": index,
                                     "confirmed": code == VALUE_CONFIRMED},
                                )
                    # A clean (non-speculative) write supersedes any
                    # stale poison on the destination register.
                    if dest >= 0 and not poisoned and spec_avail:
                        if spec_avail.pop(dest, None) is not None:
                            del spec_verify[dest]

            fetch_cycle = block_start + words
            # Every node completes one cycle after it executes except a
            # load, which completes after its latency.
            block_complete = last_exec + 1
            if load_complete > block_complete:
                block_complete = load_complete
            if block_complete > top:
                top = block_complete

            # ---- end of block: faults, branches, retirement ---------
            if faulting:
                # The whole block is discarded.  Nodes that reached a
                # function unit by the fault's resolution count as
                # executed-but-not-retired work.
                fault_time = exec_times[fault_index]
                faults += 1
                block_discarded = 0
                for node, t in zip(plan.nodes, exec_times):
                    if t <= fault_time and node[0] != T_SYSCALL:
                        block_discarded += 1
                discarded_nodes += block_discarded
                if tracing:
                    collector.event(
                        "block.fault", fault_time, 0, TID_CONTROL,
                        {"block": label, "discarded": block_discarded},
                    )
                if not perfect:
                    discarded_nodes += self._wrong_path_issue(
                        wrong_paths[position], plans, fetch_cycle + 1,
                        fault_time + 1, window_retires, reg_ready,
                        alu_used, mem_used,
                    )
                fetch_cycle = fault_time + REDIRECT_PENALTY
                window_retires.append(fault_time)
                if attributing:
                    window_mem.append(0)  # the assert is an ALU op
                    if fetch_cycle > recover_until:
                        recover_until = fetch_cycle
                if fault_time > max_cycle:
                    max_cycle = fault_time
                continue

            if plan.has_branch:
                # The branch is the block's last node: `t` is its cycle.
                chain = wrong_paths.get(position)
                if tracing:
                    collector.event(
                        "branch.resolve", t, 0, TID_CONTROL,
                        {"block": label,
                         "taken": outcomes[position] == TAKEN,
                         "mispredict": chain is not None},
                    )
                if chain is not None:
                    discarded_nodes += self._wrong_path_issue(
                        chain, plans, fetch_cycle + 1, t + 1,
                        window_retires, reg_ready, alu_used, mem_used,
                    )
                    fetch_cycle = t + REDIRECT_PENALTY
                    if attributing and fetch_cycle > recover_until:
                        recover_until = fetch_cycle

            retire = block_complete if block_complete > prev_retire else prev_retire
            prev_retire = retire
            # The window slot is reclaimed once every node of the block has
            # been *scheduled* (dispatched to a function unit) -- the node
            # table entries, not the retirement commit, are what bounds
            # fetch in an HPS-style machine.  Retirement stays in order for
            # the statistics above.
            window_retires.append(last_exec)
            if attributing:
                straggler = exec_times.index(last_exec)  # the first one
                scls = plan.nodes[straggler][0]
                if value_spec and straggler in replay_nodes:
                    window_mem.append(2)
                elif scls == T_LOAD or scls == T_STORE:
                    window_mem.append(1)
                else:
                    window_mem.append(0)
            retired_nodes += plan.n_datapath
            if retire > max_cycle:
                max_cycle = retire
            if tracing:
                collector.event(
                    "block.retire", block_start,
                    max(block_complete - block_start, 1), TID_CONTROL,
                    {"block": label, "nodes": plan.n_datapath},
                )

        # Cross-engine invariant: every trace block either retires or
        # faults, so the retired datapath-node count must match the
        # functional run's.  A divergence means the replay is wrong.
        if retired_nodes != trace.retired_nodes:
            raise EngineDivergence(
                self.benchmark, str(config), retired_nodes,
                trace.retired_nodes,
            )

        lookups = branches.lookups if branches is not None else 0
        mispredicts = branches.mispredicts if branches is not None else 0
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
            collector.count("branch.lookups", lookups)
            collector.count("branch.mispredicts", mispredicts)
            if values is not None:
                collector.count("value.predictions", values.predictions)
                collector.count("value.confirmed", values.confirmed)
                collector.count("value.squashed", values.squashed)
                collector.count("value.replays", vr_replays)
        return SimResult(
            benchmark=self.benchmark,
            config=config,
            cycles=total_cycles,
            retired_nodes=retired_nodes,
            discarded_nodes=discarded_nodes,
            dynamic_blocks=len(block_ids),
            mispredicts=mispredicts,
            branch_lookups=lookups,
            faults=faults,
            loads=memory.loads,
            stores=memory.stores,
            cache_accesses=memory.cache_accesses,
            cache_misses=memory.cache_misses,
            write_buffer_hits=memory.wb_hits,
            issue_words=issue_words,
            issued_slots=issued_slots,
            window_block_cycles=window_block_cycles,
            window_samples=len(block_ids),
            value_predictions=values.predictions if values is not None else 0,
            value_confirmed=values.confirmed if values is not None else 0,
            value_squashed=values.squashed if values is not None else 0,
            value_replays=vr_replays,
            extra=extra,
        )

    # ------------------------------------------------------------------
    def _wrong_path_issue(self, chain: Chain, plans: Dict[str, IssuePlan],
                          start_cycle: int, until_cycle: int,
                          window_retires: deque, reg_ready: List[int],
                          alu_used: bytearray, mem_used: bytearray) -> int:
        """Issue and schedule wrong-path work; returns nodes executed.

        Wrong-path nodes consume issue bandwidth and function-unit slots
        until the squash at ``until_cycle``; their register results live
        in an overlay so the architectural ready times are untouched.
        """
        mem_limit = self.mem_limit
        alu_limit = self.alu_limit
        window_size = self.window
        hit_latency = self.config.memory_config.hit_cycles

        overlay = reg_ready[:]
        executed = 0
        cycle = start_cycle
        blocks_fetched = 0
        for label in chain:
            if cycle > until_cycle:
                break
            blocks_fetched += 1
            # Window room: the real blocks still being scheduled plus
            # the wrong-path blocks fetched so far must leave a slot.
            # Stop counting as soon as the answer is known either way.
            room = window_size - blocks_fetched
            if room <= 0:
                break
            if len(window_retires) >= room:
                busy = 0
                spare = len(window_retires) - room
                for r in window_retires:
                    if r > cycle:
                        busy += 1
                        if busy >= room:
                            break
                    elif spare:
                        spare -= 1
                    else:
                        break
                if busy >= room:
                    break
            plan = plans[label]
            for cls, dest, srcs, offset, _ in plan.nodes:
                if cls == T_SYSCALL:
                    continue
                issue_cycle = cycle + offset
                if issue_cycle > until_cycle:
                    return executed
                ready = issue_cycle + 1
                for src in srcs:
                    r = overlay[src]
                    if r > ready:
                        ready = r
                # Slots past the squash are never reserved, so the search
                # for a free one stops there.
                t = ready
                if cls == T_ALU:
                    while t <= until_cycle and alu_used[t] >= alu_limit:
                        t += 1
                    if t <= until_cycle:
                        alu_used[t] += 1
                        executed += 1
                    done = t + 1
                else:
                    while t <= until_cycle and mem_used[t] >= mem_limit:
                        t += 1
                    if t <= until_cycle:
                        mem_used[t] += 1
                        executed += 1
                    done = t + (hit_latency if cls == T_LOAD else 1)
                if dest >= 0:
                    overlay[dest] = done
            cycle += plan.words
        return executed
