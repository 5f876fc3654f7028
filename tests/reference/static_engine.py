"""The statically scheduled (in-order, exposed-pipeline) timing engine.

Replays a trace over the list-scheduled program: one instruction word may
issue per cycle; a word stalls until every operand of every node in it is
ready (the hardware interlock), so cache misses beyond the compiler's
assumed hit latency surface as issue stalls at the consumer.  Speculative
execution fetches one predicted word past an unresolved branch; on a
misprediction that word is squashed and fetch redirects, and a signalling
assert discards its whole (enlarged) block.
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
from .predictor import make_predictor
from .templates import (
    BlockTemplate,
    T_ASSERT,
    T_BRANCH,
    T_LOAD,
    T_STORE,
    T_SYSCALL,
)
from ..sched.list_scheduler import ScheduledBlock

#: Issue cycles lost redirecting fetch after a squash.
REDIRECT_PENALTY = 2


class StaticEngine:
    """One trace replay on one static machine configuration."""

    def __init__(self, templates: Dict[str, BlockTemplate],
                 schedules: Dict[str, ScheduledBlock], trace: Trace,
                 config: MachineConfig, benchmark: str = "",
                 collector: Collector = NULL_COLLECTOR,
                 max_cycles: Optional[int] = None, self_check: bool = True):
        self.templates = templates
        self.schedules = schedules
        self.trace = trace
        self.config = config
        self.benchmark = benchmark
        self.collector = collector
        #: watchdog: raise SimulationHang past this simulated cycle.
        self.max_cycles = resolve_max_cycles(max_cycles)
        #: verify engine accounting against the functional trace.
        self.self_check = self_check

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        templates = self.templates
        schedules = self.schedules
        trace = self.trace
        tmpl_of: List[BlockTemplate] = [templates[label] for label in trace.labels]
        sched_of: List[ScheduledBlock] = [schedules[label] for label in trace.labels]
        block_ids = trace.block_ids
        outcomes = trace.outcomes
        fault_indices = trace.fault_indices
        addresses = trace.addresses

        memsys = MemorySystem(self.config.memory_config)
        predictor = make_predictor(self.config.predictor, self.config.static_hints)
        collector = self.collector
        tracing = collector.tracing
        attributing = collector.enabled
        hit_latency = self.config.memory_config.hit_cycles

        reg_ready = [0] * 64
        # Cycle attribution (ATTRIBUTION_BUCKETS): `acct` is a monotonic
        # accounting cursor -- every cycle in [1, acct] has been charged
        # to exactly one bucket, so the buckets always sum to the cycles
        # accounted.  `reg_mem[r]` remembers whether r's producer was a
        # load, which classifies an operand stall as memory-wait.
        acct = 0
        b_issued = b_stall = b_mem = b_recover = 0
        reg_mem = [False] * 64
        cycle = 0  # issue cycle of the most recent word
        retired_nodes = 0
        discarded_nodes = 0
        faults = 0
        max_cycle = 0
        addr_cursor = 0
        issue_words = 0
        issued_slots = 0

        watchdog_limit = self.max_cycles

        for position in range(len(block_ids)):
            # Watchdog: bounds any runaway issue loop at block granularity.
            if cycle > watchdog_limit:
                raise SimulationHang(
                    self.benchmark, str(self.config), cycle, watchdog_limit
                )
            tmpl = tmpl_of[block_ids[position]]
            sched = sched_of[block_ids[position]]
            nodes = tmpl.nodes
            fault_index = fault_indices[position]
            addr_base = addr_cursor
            addr_cursor += tmpl.n_mem

            branch_exec = -1
            fault_exec = -1
            issued_datapath = 0
            block_complete = 0
            block_start = cycle + 1

            for word in sched.words:
                issue = cycle + 1
                for index in word:
                    for src in nodes[index][2]:
                        r = reg_ready[src]
                        if r > issue:
                            issue = r
                issue_words += 1
                if attributing and issue > acct:
                    gap = issue - 1 - acct
                    if gap > 0:
                        # The word waited; charge the wait to memory if
                        # any binding operand (ready exactly at `issue`)
                        # was produced by a load.
                        stall_mem = False
                        for index in word:
                            for src in nodes[index][2]:
                                if reg_ready[src] == issue and reg_mem[src]:
                                    stall_mem = True
                                    break
                            if stall_mem:
                                break
                        if stall_mem:
                            b_mem += gap
                        else:
                            b_stall += gap
                    b_issued += 1
                    acct = issue
                for index in word:
                    cls, dest, _ = nodes[index]
                    if cls == T_LOAD:
                        addr = addresses[addr_base + sched.mem_rank[index]]
                        if tracing:
                            wb_before = memsys.wb_hits
                            lat = memsys.load_latency(addr)
                            collector.event(
                                "mem.load", issue, lat, TID_MEM,
                                {"addr": addr, "miss": lat > hit_latency,
                                 "wb_hit": memsys.wb_hits != wb_before},
                            )
                        else:
                            lat = memsys.load_latency(addr)
                        done = issue + lat
                    elif cls == T_STORE:
                        addr = addresses[addr_base + sched.mem_rank[index]]
                        memsys.store_access(addr)
                        done = issue + 1
                        if tracing:
                            collector.event(
                                "mem.store", issue, 1, TID_MEM, {"addr": addr}
                            )
                    else:
                        done = issue + 1
                        if cls == T_BRANCH:
                            branch_exec = issue
                        elif cls == T_ASSERT and index == fault_index:
                            fault_exec = issue
                    if dest >= 0:
                        reg_ready[dest] = done
                        if attributing:
                            reg_mem[dest] = cls == T_LOAD
                    if cls != T_SYSCALL:
                        issued_datapath += 1
                        if tracing:
                            collector.event(
                                "issue.slot", issue, 0,
                                TID_MEM if cls == T_LOAD or cls == T_STORE
                                else 0,
                            )
                    if done > block_complete:
                        block_complete = done
                cycle = issue
                if fault_exec >= 0:
                    break  # issue stops once the fault resolves

            issued_slots += issued_datapath

            if fault_exec >= 0:
                # Enlarged-block fault: everything issued is discarded.
                faults += 1
                discarded_nodes += issued_datapath
                cycle = fault_exec + REDIRECT_PENALTY
                if attributing and cycle > acct:
                    b_recover += cycle - acct
                    acct = cycle
                if cycle > max_cycle:
                    max_cycle = cycle
                if tracing:
                    collector.event(
                        "block.fault", fault_exec, 0, TID_CONTROL,
                        {"block": tmpl.label, "discarded": issued_datapath},
                    )
                continue

            retired_nodes += tmpl.n_datapath
            if block_complete > max_cycle:
                max_cycle = block_complete
            if tracing:
                collector.event(
                    "block.retire", block_start,
                    max(block_complete - block_start, 1), TID_CONTROL,
                    {"block": tmpl.label, "nodes": tmpl.n_datapath},
                )

            if tmpl.has_branch:
                actual_taken = outcomes[position] == TAKEN
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
                    discarded_nodes += self._squashed_word_nodes(wrong_target)
                    cycle = branch_exec + REDIRECT_PENALTY
                    if attributing and cycle > acct:
                        b_recover += cycle - acct
                        acct = cycle

        # Cross-engine invariant (see DynamicEngine.run): retired work
        # must match the functional trace exactly.
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
                # Static machines never value-speculate; the zero keeps
                # the attribution taxonomy closed across engines.
                "value_recovery": 0,
                "drain_idle": 0,
            }
            finalize_attribution(buckets, total_cycles, acct)
            for name, value in buckets.items():
                collector.count("cycles.static." + name, value)
                extra["attr." + name] = float(value)
            collector.count("branch.lookups", predictor.lookups)
            collector.count("branch.mispredicts", predictor.mispredicts)
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
            extra=extra,
        )

    # ------------------------------------------------------------------
    def _squashed_word_nodes(self, label: Optional[str]) -> int:
        """Nodes in the one wrongly fetched word past a mispredict."""
        if label is None:
            return 0
        sched = self.schedules.get(label)
        if sched is None or not sched.words:
            return 0
        return len(sched.words[0])
