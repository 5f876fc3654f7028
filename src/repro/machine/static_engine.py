"""The statically scheduled (in-order, exposed-pipeline) timing engine.

Replays a trace over the list-scheduled program: one instruction word may
issue per cycle; a word stalls until every operand of every node in it is
ready (the hardware interlock), so cache misses beyond the compiler's
assumed hit latency surface as issue stalls at the consumer.  Speculative
execution fetches one predicted word past an unresolved branch; on a
misprediction that word is squashed and fetch redirects, and a signalling
assert discards its whole (enlarged) block.

The engine runs over flattened word plans (each word's de-duplicated
source registers and its nodes) and reads mispredictions from the
trace's branch stream (:mod:`.streams`), shared with the dynamic engine.
Cache probes stay per point: they follow schedule order and stop at a
faulting word, so they depend on the schedule.  Each block's probes run
ahead of its words, which read their latencies.  A perfect memory needs
no probe at all.

Every point attributes its cycles (:data:`ATTRIBUTION_BUCKETS`); the
collector decides only whether the buckets are published.  Unless the
collector traces, the engine memoises block transfers (:mod:`.memo`):
the state is the registers still pending after the last issued word,
relative to its issue cycle, with whether a load produced each, and the
accounting cursor's offset from that cycle; the key adds the block
inputs (:class:`.streams.BlockInputs`) and the block's probe latencies,
and a record adds its cycle buckets to the counters it carries.
"""

from __future__ import annotations

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
from .cache import MemorySystem
from .config import MachineConfig
from .errors import EngineDivergence, SimulationHang, resolve_max_cycles
from .memo import TransferMemo
from .streams import TraceStreams, WordPlan
from .templates import BlockTemplate, T_LOAD, T_STORE, T_SYSCALL
from ..sched.list_scheduler import ScheduledBlock

#: Issue cycles lost redirecting fetch after a squash.
REDIRECT_PENALTY = 2

#: ``reg_ready`` with no register pending, for rebuilding it.
_NOTHING_PENDING = [0] * 64


class StaticEngine:
    """One trace replay on one static machine configuration."""

    def __init__(self, templates: Dict[str, BlockTemplate],
                 schedules: Dict[str, ScheduledBlock], trace: Trace,
                 config: MachineConfig, benchmark: str = "",
                 collector: Collector = NULL_COLLECTOR,
                 max_cycles: Optional[int] = None):
        self.templates = templates
        self.schedules = schedules
        self.trace = trace
        self.config = config
        self.benchmark = benchmark
        self.collector = collector
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
        plans = streams.word_plans(self.schedules)
        plan_of: List[WordPlan] = [plans[label] for label in trace.labels]
        branches = streams.branches(config.predictor, config.static_hints)
        wrong_paths = branches.wrong_paths
        block_ids = trace.block_ids
        outcomes = trace.outcomes
        fault_indices = trace.fault_indices
        addresses = trace.addresses

        memory_config = config.memory_config
        hit_latency = memory_config.hit_cycles
        memsys = (None if memory_config.is_perfect
                  else MemorySystem(memory_config))
        load_latency = memsys.load_latency if memsys is not None else None
        store_access = memsys.store_access if memsys is not None else None
        collector = self.collector
        tracing = collector.tracing
        # Probe the cache only with one to probe (or events to report).
        addressing = memsys is not None or tracing

        reg_ready = [0] * 64
        # Cycle attribution (ATTRIBUTION_BUCKETS): `acct` is a monotonic
        # accounting cursor -- every cycle in [1, acct] has been charged
        # to exactly one bucket, so the buckets always sum to the cycles
        # accounted; a word's issue cycle advances it, so `issued_full`
        # is what the other buckets leave of it.  `reg_mem[r]` remembers
        # whether r's producer was a load, which classifies an operand
        # stall as memory-wait.
        acct = 0
        b_stall = b_mem = b_recover = 0
        reg_mem = [False] * 64
        cycle = 0  # issue cycle of the most recent word
        retired_nodes = 0
        discarded_nodes = 0
        faults = 0
        max_cycle = 0
        addr_cursor = 0
        issue_words = 0
        issued_slots = 0
        loads = stores = 0  # perfect memory only; a cache counts its own
        # Each load's latency and write-buffer hit, in schedule order.
        latencies: List[int] = []
        wb_flags: List[bool] = []

        # Transfer memo (module docstring): the state is the registers
        # still pending after `cycle`, as (register, ready - cycle,
        # reg_mem), and acct - cycle.  Any other register is ready by the
        # block's first issue, so it never binds a word that waits past
        # the cursor (at or past `cycle`): its `reg_mem` is never read.
        memo = None
        recording = False  # whether the block just run missed the memo
        if not tracing:
            inputs = streams.inputs(
                None, (config.predictor, config.static_hints))
            input_ids = inputs.ids
            memo = TransferMemo(len(inputs.mem_nodes))
            rows = memo.rows
            states = memo.states
            state = memo.state_id(((), 0))
            synced = True  # whether the engine's own state holds it

        watchdog_limit = self.max_cycles

        for position in range(len(block_ids)):
            if recording:
                # The block code leaves by several paths, so a missed
                # block's transfer is stored here, as the next starts.
                pending = cycle + 1
                after = memo.state_id((tuple([
                    (reg, ready - cycle, reg_mem[reg])
                    for reg, ready in enumerate(reg_ready)
                    if ready > pending]), acct - cycle))
                memo.store(input_id, key, [
                    cycle - start, after,
                    (cycle if fault is not None else block_complete) - start,
                    retired_nodes - before[0], discarded_nodes - before[1],
                    faults - before[2], len(words), issued_datapath,
                    b_stall - before[3], b_mem - before[4],
                    b_recover - before[5]])
                state = after
                recording = False
            # Watchdog: bounds any runaway issue loop at block granularity.
            if cycle > watchdog_limit:
                raise SimulationHang(
                    self.benchmark, str(config), cycle, watchdog_limit
                )
            block_id = block_ids[position]
            plan = plan_of[block_id]
            addr_base = addr_cursor
            addr_cursor += plan.n_mem
            words = plan.words
            fault_index = fault_indices[position]
            # Issue stops after the word holding a signalling assert.
            fault = plan.faults.get(fault_index) if fault_index >= 0 else None
            if fault is not None:
                words = words[:fault[0]]
                issued_datapath = fault[1]
                loads += fault[2]
                stores += fault[3]
            else:
                issued_datapath = plan.n_datapath
                loads += plan.loads
                stores += plan.stores

            # Cache probes, in schedule order through the last issued
            # word, ahead of the words that read their latencies.
            if addressing:
                del latencies[:]
                del wb_flags[:]
                probes = plan.probes
                if fault is not None:
                    probes = probes[:fault[2] + fault[3]]
                for rank, is_load in probes:
                    if memsys is None:  # tracing a perfect memory
                        if is_load:
                            latencies.append(hit_latency)
                            wb_flags.append(False)
                    elif not is_load:
                        store_access(addresses[addr_base + rank])
                    elif tracing:
                        wb_before = memsys.wb_hits
                        latencies.append(
                            load_latency(addresses[addr_base + rank]))
                        wb_flags.append(memsys.wb_hits != wb_before)
                    else:
                        latencies.append(
                            load_latency(addresses[addr_base + rank]))

            if memo is not None:
                key = (state, tuple(latencies)) if addressing else state
                input_id = input_ids[position]
                record = rows[input_id].get(key)
                if record is not None:
                    peak = cycle + record[2]
                    if peak > max_cycle:
                        max_cycle = peak
                    cycle += record[0]
                    state = record[1]
                    record[-1] += 1
                    synced = False
                    continue
                if not synced:
                    pending_regs, acct = states[state]
                    acct += cycle
                    reg_ready[:] = _NOTHING_PENDING
                    for reg, ready, mem in pending_regs:
                        reg_ready[reg] = cycle + ready
                        reg_mem[reg] = mem
                    synced = True
                recording = True
                start = cycle
                before = (retired_nodes, discarded_nodes, faults,
                          b_stall, b_mem, b_recover)

            branch_exec = -1
            block_complete = 0
            block_start = cycle + 1
            load_rank = 0

            for srcs, ops, holds_branch in words:
                issue = cycle + 1
                for src in srcs:
                    r = reg_ready[src]
                    if r > issue:
                        issue = r
                if issue > acct:
                    gap = issue - 1 - acct
                    if gap > 0:
                        # The word waited; charge the wait to memory if
                        # any binding operand (ready exactly at `issue`)
                        # was produced by a load.
                        stall_mem = False
                        for src in srcs:
                            if reg_ready[src] == issue and reg_mem[src]:
                                stall_mem = True
                                break
                        if stall_mem:
                            b_mem += gap
                        else:
                            b_stall += gap
                    acct = issue
                for cls, dest, rank in ops:
                    if cls == T_LOAD:
                        if addressing:
                            lat = latencies[load_rank]
                            if tracing:
                                collector.event(
                                    "mem.load", issue, lat, TID_MEM,
                                    {"addr": addresses[addr_base + rank],
                                     "miss": lat > hit_latency,
                                     "wb_hit": wb_flags[load_rank]},
                                )
                            load_rank += 1
                        else:
                            lat = hit_latency
                        done = issue + lat
                    elif cls == T_STORE:
                        if tracing:
                            collector.event(
                                "mem.store", issue, 1, TID_MEM,
                                {"addr": addresses[addr_base + rank]},
                            )
                        done = issue + 1
                    else:
                        done = issue + 1
                    if dest >= 0:
                        reg_ready[dest] = done
                        reg_mem[dest] = cls == T_LOAD
                    if tracing and cls != T_SYSCALL:
                        collector.event(
                            "issue.slot", issue, 0,
                            TID_MEM if cls == T_LOAD or cls == T_STORE
                            else 0,
                        )
                    if done > block_complete:
                        block_complete = done
                if holds_branch:
                    branch_exec = issue
                cycle = issue

            issue_words += len(words)
            issued_slots += issued_datapath

            if fault is not None:
                # Enlarged-block fault: everything issued is discarded.
                fault_exec = cycle
                faults += 1
                discarded_nodes += issued_datapath
                cycle = fault_exec + REDIRECT_PENALTY
                if cycle > acct:
                    b_recover += cycle - acct
                    acct = cycle
                if cycle > max_cycle:
                    max_cycle = cycle
                if tracing:
                    collector.event(
                        "block.fault", fault_exec, 0, TID_CONTROL,
                        {"block": trace.labels[block_id],
                         "discarded": issued_datapath},
                    )
                continue

            retired_nodes += plan.n_datapath
            if block_complete > max_cycle:
                max_cycle = block_complete
            if tracing:
                collector.event(
                    "block.retire", block_start,
                    max(block_complete - block_start, 1), TID_CONTROL,
                    {"block": trace.labels[block_id],
                     "nodes": plan.n_datapath},
                )

            if plan.has_branch:
                chain = wrong_paths.get(position)
                if tracing:
                    collector.event(
                        "branch.resolve", branch_exec, 0, TID_CONTROL,
                        {"block": trace.labels[block_id],
                         "taken": outcomes[position] == TAKEN,
                         "mispredict": chain is not None},
                    )
                if chain is not None:
                    # The one wrongly fetched word past the mispredict.
                    if chain:
                        wrong = plans.get(chain[0])
                        if wrong is not None:
                            discarded_nodes += wrong.first_word_nodes
                    cycle = branch_exec + REDIRECT_PENALTY
                    if cycle > acct:
                        b_recover += cycle - acct
                        acct = cycle

        if memo is not None:
            replayed = memo.replayed(3, 8)
            retired_nodes += replayed[0]
            discarded_nodes += replayed[1]
            faults += replayed[2]
            issue_words += replayed[3]
            issued_slots += replayed[4]
            b_stall += replayed[5]
            b_mem += replayed[6]
            b_recover += replayed[7]
            if not synced:
                acct = cycle + states[state][1]

        # Cross-engine invariant (see DynamicEngine.run): retired work
        # must match the functional trace exactly.
        if retired_nodes != trace.retired_nodes:
            raise EngineDivergence(
                self.benchmark, str(config), retired_nodes,
                trace.retired_nodes,
            )

        cache_accesses = cache_misses = wb_hits = 0
        if memsys is not None:
            loads = memsys.load_count
            stores = memsys.store_count
            cache_accesses = memsys.cache.accesses
            cache_misses = memsys.cache.misses
            wb_hits = memsys.wb_hits
        total_cycles = max(max_cycle, 1)
        extra: Dict[str, float] = {}
        if collector.enabled:
            buckets = {
                "issued_full": acct - b_stall - b_mem - b_recover,
                "issue_stall": b_stall,
                "memory_wait": b_mem,
                "mispredict_recovery": b_recover,
                # Static machines never value-speculate; the zero keeps
                # the attribution taxonomy closed across engines.
                "value_recovery": 0,
                "drain_idle": 0,
            }
            finalize_attribution(buckets, total_cycles, acct)
            for name, value in buckets.items():
                collector.count("cycles.static." + name, value)
                extra["attr." + name] = float(value)
            collector.count("branch.lookups", branches.lookups)
            collector.count("branch.mispredicts", branches.mispredicts)
        return SimResult(
            benchmark=self.benchmark,
            config=config,
            cycles=total_cycles,
            retired_nodes=retired_nodes,
            discarded_nodes=discarded_nodes,
            dynamic_blocks=len(block_ids),
            mispredicts=branches.mispredicts,
            branch_lookups=branches.lookups,
            faults=faults,
            loads=loads,
            stores=stores,
            cache_accesses=cache_accesses,
            cache_misses=cache_misses,
            write_buffer_hits=wb_hits,
            issue_words=issue_words,
            issued_slots=issued_slots,
            extra=extra,
        )
