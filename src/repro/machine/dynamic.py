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

Every point attributes its cycles (:data:`ATTRIBUTION_BUCKETS`); the
collector decides only whether the buckets are published.  Windows of
one and four blocks without value speculation memoise block transfers
(:mod:`.memo`) unless the collector traces.  The state, relative to the
cycle the block opens at once its window gate has passed and the gap
before its first word is charged, is the pending registers, the window
entries still to free with their stragglers' kinds, the accounting
cursor and the slot use from the next cycle on; the key adds the block
inputs (:class:`.streams.BlockInputs`) and its memory words' store and
load times, and a record adds its cycle buckets to the counters it
carries.  A 256-block window's state rarely repeats, value speculation
keeps poison the state does not hold, and tracing needs every node, so
those points run the loop alone.

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
from .memo import TransferMemo
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

#: The widest window the transfer memo serves.  A 256-block window
#: carries up to 256 entries and thousands of cycles of slot use in its
#: state, so few block instances repeat one.
MEMO_MAX_WINDOW = 4

#: ``reg_ready`` with no register pending, for rebuilding it.
_NOTHING_PENDING = [0] * 64


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
        # charged to exactly one bucket.  Once a block's window gate has
        # passed, the gap before its first word is charged by two
        # absolute-cycle markers -- `recover_until` (set at squash
        # redirects) and `window_until` (set when the gate holds fetch)
        # -- recovery first; its words advance the cursor as it issues,
        # so `issued_full` is what the other buckets leave of `acct`.
        # `kinds[p]` is what kind of node block p's straggler was (0 =
        # ALU, 1 = memory op, 2 = value-squash replay), so a gate held
        # by a straggling load reads as memory-wait and one held by a
        # replayed dependent as value-recovery.
        acct = 0
        b_stall = b_mem = b_recover = b_value = 0
        recover_until = 0
        window_until = 0
        window_kind = 0
        kinds = bytearray(len(block_ids))
        # The sequential model issues its first node in the fetch cycle
        # itself; wider models open their first word one cycle later.
        # A block's gap ends `lead` cycles past its fetch cycle.
        first_word = 0 if config.issue.sequential else 1
        lead = first_word - 1

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
        # count what it discards).
        exec_times: List[int] = []

        # Transfer memo (module docstring).  The state, relative to the
        # cycle the next block opens at once its window gate has passed
        # and its gap is charged: (pending registers as (register, ready
        # - fetch), window entries still to free as entry - fetch with
        # every entry before fetch read as -1, their stragglers' kinds
        # (0 for those), acct - fetch, ALU and memory slot use from
        # fetch + 1 on).  The key adds each memory word's store and load
        # time past fetch + 1.  A record ends past the next block's gap,
        # which a block with no issue word (a lone syscall) leaves to
        # the block after it: the last two blocks (the exit syscall is
        # one) run the loop, and a trace with one before its end runs
        # the loop alone.
        memo = None
        live = True  # whether the engine's own state is current
        recording = False  # whether the block just run missed the memo
        memo_end = 0  # positions below this look the memo up
        if (window_size <= MEMO_MAX_WINDOW and not value_spec
                and not tracing and not streams.wordless_inside()):
            inputs = streams.inputs(
                memory_config,
                None if perfect else (config.predictor, config.static_hints))
            input_ids = inputs.ids
            mem_nodes = inputs.mem_nodes
            memo = TransferMemo(len(mem_nodes))
            rows = memo.rows
            states = memo.states
            state = memo.state_id(((), (), b"", 0, b"", b""))
            memo_end = len(block_ids) - 2
            store_get = store_time.get
            load_get = load_time.get

        watchdog_limit = self.max_cycles

        for position in range(len(block_ids)):
            plan = plan_of[block_ids[position]]
            if live:
                # Window gating: a new block may not begin issue until the
                # block `window_size` older has retired (or been squashed).
                if len(window_retires) >= window_size:
                    freed = window_retires.popleft()
                    if freed >= fetch_cycle:
                        fetch_cycle = freed + 1
                        window_until = fetch_cycle
                        window_kind = kinds[position - window_size]
                gap_end = fetch_cycle + lead
                if gap_end > acct and plan.words:
                    lo = acct
                    if recover_until > lo:
                        lo = (recover_until if recover_until < gap_end
                              else gap_end)
                        b_recover += lo - acct
                    if window_until > lo:
                        until = (window_until if window_until < gap_end
                                 else gap_end)
                        if window_kind == 2:
                            b_value += until - lo
                        elif window_kind == 1:
                            b_mem += until - lo
                        else:
                            b_stall += until - lo
                        lo = until
                    b_stall += gap_end - lo
                    acct = gap_end
                if recording:
                    # The block code leaves by several paths, so a missed
                    # block's transfer is stored here, once this block's
                    # window gate has passed.
                    since = fetch_cycle + 1
                    oldest = position - len(window_retires)
                    after = memo.state_id((
                        tuple([(reg, ready - fetch_cycle)
                               for reg, ready in enumerate(reg_ready)
                               if ready > since]),
                        tuple([entry - fetch_cycle
                               if entry >= fetch_cycle else -1
                               for entry in window_retires]),
                        bytes([kinds[oldest + k] if entry >= fetch_cycle
                               else 0
                               for k, entry in enumerate(window_retires)]),
                        acct - fetch_cycle,
                        bytes(alu_used[since:top + 1].rstrip(b"\0")),
                        bytes(mem_used[since:top + 1].rstrip(b"\0")),
                    ))
                    load_writes = []
                    store_writes = []
                    k = 0
                    for node in missed.nodes:
                        if node[0] == T_LOAD:
                            load_writes.append(
                                (k, load_time[mem_words[k]] - block_start))
                            k += 1
                        elif node[0] == T_STORE:
                            store_writes.append(
                                (k, store_time[mem_words[k]] - block_start))
                            k += 1
                    memo.store(input_id, key, [
                        fetch_cycle - block_start, after,
                        (fault_time if faulting else block_complete)
                        - block_start,
                        block_complete - block_start, load_writes,
                        store_writes,
                        retired_nodes - before[0], discarded_nodes - before[1],
                        faults - before[2], window_block_cycles - before[3],
                        missed.words, missed.n_datapath,
                        b_stall - before[4], b_mem - before[5],
                        b_recover - before[6],
                    ])
                    state = after
                    recording = False

            # Watchdog: one comparison per block bounds any runaway
            # scheduling loop without touching the per-node hot path.
            if fetch_cycle > watchdog_limit:
                raise SimulationHang(
                    self.benchmark, str(config), fetch_cycle,
                    watchdog_limit,
                )

            if position < memo_end:
                input_id = input_ids[position]
                count = mem_nodes[input_id]
                if count:
                    mem_words = []
                    times = []
                    since = fetch_cycle + 1
                    for address in addresses[mem_cursor:mem_cursor + count]:
                        word = address >> 2
                        mem_words.append(word)
                        st = store_get(word, 0) - since
                        times.append(st if st > 0 else 0)
                        lt = load_get(word, 0) - since
                        times.append(lt if lt > 0 else 0)
                    key = (state, tuple(times))
                else:
                    key = state
                transfer = rows[input_id].get(key)
                if transfer is not None:
                    for k, ready in transfer[4]:
                        load_time[mem_words[k]] = fetch_cycle + ready
                    for k, ready in transfer[5]:
                        store_time[mem_words[k]] = fetch_cycle + ready
                    peak = fetch_cycle + transfer[2]
                    if peak > max_cycle:
                        max_cycle = peak
                    peak = fetch_cycle + transfer[3]
                    if peak > top:
                        top = peak
                    fetch_cycle += transfer[0]
                    state = transfer[1]
                    mem_cursor += count
                    transfer[-1] += 1
                    live = False
                    continue

            # The slot tables cover the block's worst case (see `slack`).
            horizon = (top if top > fetch_cycle else fetch_cycle) + slack
            if horizon >= size:
                while horizon >= size:
                    size *= 2
                alu_used.extend(bytes(size - len(alu_used)))
                mem_used.extend(bytes(size - len(mem_used)))

            if memo is not None:
                if not live:
                    (regs, window, window_kinds, acct, alu_use,
                     mem_use) = states[state]
                    reg_ready[:] = _NOTHING_PENDING
                    for reg, ready in regs:
                        reg_ready[reg] = fetch_cycle + ready
                    window_retires.clear()
                    window_retires.extend(
                        [fetch_cycle + entry for entry in window])
                    kinds[position - len(window):position] = window_kinds
                    acct += fetch_cycle
                    recover_until = window_until = 0  # the gap is charged
                    since = fetch_cycle + 1
                    alu_used[since:since + len(alu_use)] = alu_use
                    mem_used[since:since + len(mem_use)] = mem_use
                    live = True
                recording = position < memo_end
                missed = plan
                before = (retired_nodes, discarded_nodes, faults,
                          window_block_cycles, b_stall, b_mem, b_recover)

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
            if faulting:
                del exec_times[:]
            if value_spec:
                replay_nodes.clear()

            # Each basic block is issued as its own unit of work: a new
            # issue word opens at every block boundary.  Small blocks
            # therefore waste issue slots -- the issue-bandwidth problem
            # basic block enlargement exists to solve.
            words = plan.words
            if words:
                last = fetch_cycle + lead + words
                if last > acct:
                    acct = last
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
                    straggler = index
                if faulting:
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
                # The assert is an ALU op: `kinds[position]` stays 0.
                window_retires.append(fault_time)
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
                    if fetch_cycle > recover_until:
                        recover_until = fetch_cycle

            retire = block_complete if block_complete > prev_retire else prev_retire
            prev_retire = retire
            # The window slot is reclaimed once every node of the block has
            # been *scheduled* (dispatched to a function unit) -- the node
            # table entries, not the retirement commit, are what bounds
            # fetch in an HPS-style machine.  Retirement stays in order for
            # the statistics above.
            window_retires.append(last_exec)
            if value_spec and straggler in replay_nodes:
                kinds[position] = 2
            else:
                scls = plan.nodes[straggler][0]
                if scls == T_LOAD or scls == T_STORE:
                    kinds[position] = 1
            retired_nodes += plan.n_datapath
            if retire > max_cycle:
                max_cycle = retire
            if tracing:
                collector.event(
                    "block.retire", block_start,
                    max(block_complete - block_start, 1), TID_CONTROL,
                    {"block": label, "nodes": plan.n_datapath},
                )

        if memo is not None:
            replayed = memo.replayed(6, 9)
            retired_nodes += replayed[0]
            discarded_nodes += replayed[1]
            faults += replayed[2]
            window_block_cycles += replayed[3]
            issue_words += replayed[4]
            issued_slots += replayed[5]
            b_stall += replayed[6]
            b_mem += replayed[7]
            b_recover += replayed[8]

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
        if collector.enabled:
            buckets = {
                "issued_full": acct - b_stall - b_mem - b_recover - b_value,
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
