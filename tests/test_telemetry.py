"""Telemetry subsystem tests: collector API, exporters, null fast path."""

import io
import json
import tracemalloc

import pytest

import repro.telemetry.collector as collector_module
from repro.lang import compile_source
from repro.machine.config import BranchMode, Discipline, MachineConfig
from repro.machine.simulator import prepare_workload, simulate
from repro.stats.aggregate import histogram_stats, telemetry_report
from repro.telemetry import (
    ATTRIBUTION_BUCKETS,
    EVENT_NAMES,
    Collector,
    MetricsCollector,
    NULL_COLLECTOR,
    ProgressLine,
    TID_MEM,
    TraceCollector,
    chrome_trace,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)

DYN_CONFIG = MachineConfig(
    discipline=Discipline.DYNAMIC,
    issue_model=8,
    memory="D",
    branch_mode=BranchMode.ENLARGED,
    window_blocks=4,
)
STATIC_CONFIG = MachineConfig(
    discipline=Discipline.STATIC,
    issue_model=4,
    memory="E",
    branch_mode=BranchMode.SINGLE,
)

#: The event classes a dynamic point on an enlarged program emits.
HOOK_CLASSES = {"issue.slot", "window.occupancy", "mem.load", "mem.store",
                "branch.resolve", "block.fault", "block.retire"}

#: A short program whose dynamic trace still holds every hook class: a
#: one-in-five branch in a loop makes the enlarged program fault.
SHORT_SOURCE = """
int data[256];

int main() {
    int i;
    int s = 0;
    for (i = 0; i < 256; i++) data[i] = (i * 7) & 31;
    for (i = 0; i < 256; i++) {
        if (data[i] % 5 == 0) s += data[i];
        else s ^= i;
    }
    return s & 255;
}
"""

#: Every SimResult field that must not depend on telemetry being on.
_COMPARED_FIELDS = (
    "cycles", "retired_nodes", "discarded_nodes", "dynamic_blocks",
    "mispredicts", "branch_lookups", "faults", "loads", "stores",
    "cache_accesses", "cache_misses", "write_buffer_hits",
    "issue_words", "issued_slots", "window_block_cycles", "window_samples",
)


class TestMetricsCollector:
    def test_count_accumulates(self):
        collector = MetricsCollector()
        collector.count("a")
        collector.count("a", 4)
        collector.count("b")
        assert collector.counters == {"a": 5, "b": 1}

    def test_observe_records_samples(self):
        collector = MetricsCollector()
        collector.observe("h", 1.0)
        collector.observe("h", 3.0)
        assert collector.histograms["h"] == [1.0, 3.0]

    def test_metrics_collector_drops_events(self):
        collector = MetricsCollector()
        collector.event("issue.slot", 3)
        assert collector.events == []
        assert not collector.tracing


class TestNullCollector:
    def test_flags(self):
        assert not NULL_COLLECTOR.enabled
        assert not NULL_COLLECTOR.tracing
        assert isinstance(NULL_COLLECTOR, Collector)

    def test_writes_are_noops(self):
        NULL_COLLECTOR.count("a")
        NULL_COLLECTOR.observe("h", 1.0)
        NULL_COLLECTOR.event("issue.slot", 0)
        assert NULL_COLLECTOR.counters == {}
        assert NULL_COLLECTOR.histograms == {}
        assert NULL_COLLECTOR.events == []


class TestTraceCollector:
    def test_events_recorded_as_tuples(self):
        collector = TraceCollector()
        collector.event("mem.load", 7, 10, TID_MEM, {"addr": 4})
        assert collector.events == [(7, 10, "mem.load", TID_MEM, {"addr": 4})]
        assert collector.tracing and collector.enabled


@pytest.fixture(scope="module")
def traced_dynamic(request):
    """(SimResult, TraceCollector) for one dynamic point on grep."""
    prepared = request.getfixturevalue("grep_prepared")
    collector = TraceCollector()
    result = simulate(prepared, DYN_CONFIG, collector=collector)
    return result, collector


@pytest.fixture(scope="module")
def short_prepared():
    """The short program, prepared once per module."""
    return prepare_workload("short", compile_source(SHORT_SOURCE),
                            {0: b""}, {0: b""})


@pytest.fixture(scope="module")
def traced_short(short_prepared):
    """(SimResult, TraceCollector) for one dynamic point on the short
    program: cheap to export, and every hook class is in it."""
    collector = TraceCollector()
    result = simulate(short_prepared, DYN_CONFIG, collector=collector)
    return result, collector


@pytest.fixture(scope="module")
def traced_static(request):
    prepared = request.getfixturevalue("grep_prepared")
    collector = TraceCollector()
    result = simulate(prepared, STATIC_CONFIG, collector=collector)
    return result, collector


class TestEnginesUnchangedByTracing:
    """Telemetry on vs off must not change any simulation statistic."""

    @pytest.mark.parametrize("config", [DYN_CONFIG, STATIC_CONFIG],
                             ids=["dynamic", "static"])
    def test_simresult_identical(self, grep_prepared, config):
        plain = simulate(grep_prepared, config)
        traced = simulate(grep_prepared, config, collector=TraceCollector())
        for field in _COMPARED_FIELDS:
            assert getattr(plain, field) == getattr(traced, field), field

    def test_null_collector_event_never_called(self, grep_prepared,
                                               monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("event() called on the disabled path")

        monkeypatch.setattr(Collector, "event", boom)
        simulate(grep_prepared, DYN_CONFIG)
        simulate(grep_prepared, STATIC_CONFIG)

    def test_null_path_makes_no_telemetry_allocations(self, short_prepared,
                                                      traced_short):
        """The per-cycle hot loops allocate nothing in telemetry code."""
        # The short program reaches every hook class.
        _result, collector = traced_short
        assert HOOK_CLASSES <= {event[2] for event in collector.events}
        simulate(short_prepared, DYN_CONFIG)  # warm every lazy cache
        tracemalloc.start()
        try:
            simulate(short_prepared, DYN_CONFIG)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        telemetry_file = collector_module.__file__
        stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, telemetry_file)]
        ).statistics("filename")
        assert sum(s.count for s in stats) == 0


class TestTraceContents:
    def test_event_names_are_stable(self, traced_dynamic, traced_static):
        for _result, collector in (traced_dynamic, traced_static):
            names = {event[2] for event in collector.events}
            assert names
            assert names <= EVENT_NAMES

    def test_dynamic_trace_covers_all_hook_classes(self, traced_dynamic):
        _result, collector = traced_dynamic
        names = {event[2] for event in collector.events}
        assert HOOK_CLASSES <= names

    def test_static_trace_has_no_window_events(self, traced_static):
        _result, collector = traced_static
        names = {event[2] for event in collector.events}
        assert "window.occupancy" not in names
        assert "issue.slot" in names

    def test_issued_slots_match_trace(self, traced_dynamic):
        result, collector = traced_dynamic
        slots = sum(1 for e in collector.events if e[2] == "issue.slot")
        assert slots == result.issued_slots

    def test_window_occupancy_bounded(self, traced_dynamic):
        _result, collector = traced_dynamic
        values = [e[4]["blocks"] for e in collector.events
                  if e[2] == "window.occupancy"]
        assert values
        assert all(1 <= v <= DYN_CONFIG.window_blocks for v in values)

    def test_mispredict_events_match_result(self, traced_dynamic):
        result, collector = traced_dynamic
        mispredicts = sum(
            1 for e in collector.events
            if e[2] == "branch.resolve" and e[4]["mispredict"]
        )
        assert mispredicts == result.mispredicts

    def test_memory_events_match_result(self, traced_dynamic):
        result, collector = traced_dynamic
        load_events = [e for e in collector.events if e[2] == "mem.load"]
        store_events = [e for e in collector.events if e[2] == "mem.store"]
        misses = sum(1 for e in load_events if e[4]["miss"])
        wb_hits = sum(1 for e in load_events if e[4]["wb_hit"])
        assert len(load_events) == result.loads
        assert len(store_events) == result.stores
        assert wb_hits == result.write_buffer_hits
        # cache_misses additionally counts store-probe misses.
        assert 0 < misses <= result.cache_misses


class TestChromeExporter:
    def test_document_is_valid_and_monotonic(self, traced_short):
        _result, collector = traced_short
        buffer = io.StringIO()
        write_chrome_trace(collector, buffer, benchmark="short",
                           config=str(DYN_CONFIG))
        document = json.loads(buffer.getvalue())
        events = document["traceEvents"]
        assert events
        timestamps = [e["ts"] for e in events if "ts" in e]
        assert all(a <= b for a, b in zip(timestamps, timestamps[1:]))
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i", "C"}
        for event in events:
            assert event["name"]
            if event["ph"] == "X":
                assert event["dur"] >= 1

    def test_slot_events_become_counter_track(self, traced_short):
        _result, collector = traced_short
        document = chrome_trace(collector)
        names = {e["name"] for e in document["traceEvents"]}
        assert "issue.slots" in names
        assert "issue.slot" not in names  # folded, not emitted raw
        sample = next(e for e in document["traceEvents"]
                      if e["name"] == "issue.slots")
        assert set(sample["args"]) == {"alu", "mem"}

    def test_writes_to_path(self, traced_short, tmp_path):
        _result, collector = traced_short
        out = tmp_path / "trace.json"
        write_chrome_trace(collector, str(out))
        document = json.loads(out.read_text())
        assert document["traceEvents"]


class TestJsonlExporter:
    def test_lines_are_json_and_monotonic(self, traced_short):
        _result, collector = traced_short
        lines = list(jsonl_lines(collector))
        assert lines
        records = [json.loads(line) for line in lines]
        timestamps = [r["ts"] for r in records]
        assert all(a <= b for a, b in zip(timestamps, timestamps[1:]))
        assert {r["name"] for r in records} <= EVENT_NAMES

    def test_writes_to_path(self, traced_short, tmp_path):
        _result, collector = traced_short
        out = tmp_path / "trace.jsonl"
        write_jsonl(collector, str(out))
        first = out.read_text().splitlines()[0]
        assert "ts" in json.loads(first)


class TestDerivedSimResultFields:
    def test_dynamic_utilization_in_range(self, traced_dynamic):
        result, _collector = traced_dynamic
        assert 0.0 < result.issue_utilization <= 1.0
        assert 1.0 <= result.avg_window_blocks <= DYN_CONFIG.window_blocks

    def test_static_has_no_window_samples(self, traced_static):
        result, _collector = traced_static
        assert result.window_samples == 0
        assert result.avg_window_blocks == 0.0
        assert 0.0 < result.issue_utilization <= 1.0


class TestTelemetryReport:
    def test_histogram_stats(self):
        stats = histogram_stats([3.0, 1.0, 2.0])
        assert stats["count"] == 3
        assert stats["total"] == 6.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["mean"] == pytest.approx(2.0)
        assert histogram_stats([]) == {"count": 0}

    def test_report_shape_and_json_roundtrip(self):
        collector = MetricsCollector()
        collector.count("sweep.cache.hit", 2)
        collector.observe("sweep.point.wall_s", 0.5)
        report = telemetry_report(collector)
        parsed = json.loads(json.dumps(report))
        assert parsed["schema"] == "repro.telemetry/4"
        assert "timers" not in parsed
        assert "phases" not in parsed
        assert "points" not in parsed
        assert parsed["counters"]["sweep.cache.hit"] == 2
        assert parsed["histograms"]["sweep.point.wall_s"]["count"] == 1


#: Attribution must hold on every engine/mode combination, including
#: the sequential (issue model 1) dynamic path and both branch schemes.
_ATTR_CONFIGS = [
    DYN_CONFIG,
    STATIC_CONFIG,
    MachineConfig(discipline=Discipline.DYNAMIC, issue_model=1,
                  memory="A", branch_mode=BranchMode.SINGLE,
                  window_blocks=1),
    MachineConfig(discipline=Discipline.STATIC, issue_model=8,
                  memory="A", branch_mode=BranchMode.ENLARGED),
    # Value speculation: squashed values charge ``value_recovery``.
    MachineConfig(discipline=Discipline.DYNAMIC, issue_model=8,
                  memory="C", branch_mode=BranchMode.ENLARGED,
                  window_blocks=4, value_predictor="context"),
]
_ATTR_IDS = ["dyn8", "static4", "dyn-seq", "static-enlarged", "dyn4-vp"]


class TestCycleAttribution:
    @pytest.mark.parametrize("config", _ATTR_CONFIGS, ids=_ATTR_IDS)
    def test_buckets_sum_exactly_to_cycles(self, grep_prepared, config):
        collector = MetricsCollector()
        result = simulate(grep_prepared, config, collector=collector)
        buckets = {
            name[len("attr."):]: value
            for name, value in result.extra.items()
            if name.startswith("attr.")
        }
        assert set(buckets) == set(ATTRIBUTION_BUCKETS)
        assert all(value >= 0 for value in buckets.values())
        assert sum(buckets.values()) == result.cycles
        if config.value_predictor != "none":
            assert buckets["value_recovery"] > 0
        engine = ("dynamic" if config.discipline is Discipline.DYNAMIC
                  else "static")
        for name in ATTRIBUTION_BUCKETS:
            assert (collector.counters[f"cycles.{engine}.{name}"]
                    == buckets[name]), name

    def test_disabled_collector_attaches_nothing(self, grep_prepared):
        result = simulate(grep_prepared, DYN_CONFIG)
        assert not any(name.startswith("attr.") for name in result.extra)

    def test_disabled_collector_sees_no_writes(self, grep_prepared):
        """Zero-cost-when-disabled tripwire: a disabled collector must
        never receive a single write call from either engine."""

        class Tripwire(Collector):
            enabled = False
            tracing = False

            def count(self, *args, **kwargs):
                raise AssertionError("count() on the disabled path")

            def observe(self, *args, **kwargs):
                raise AssertionError("observe() on the disabled path")

            def event(self, *args, **kwargs):
                raise AssertionError("event() on the disabled path")

        simulate(grep_prepared, DYN_CONFIG, collector=Tripwire())
        simulate(grep_prepared, STATIC_CONFIG, collector=Tripwire())

    def test_attribution_does_not_change_timing(self, grep_prepared):
        plain = simulate(grep_prepared, DYN_CONFIG)
        counted = simulate(grep_prepared, DYN_CONFIG,
                           collector=MetricsCollector())
        for field in _COMPARED_FIELDS:
            assert getattr(plain, field) == getattr(counted, field), field


class TestReportSections:
    def test_phases_and_attribution_in_report(self):
        collector = MetricsCollector()
        collector.observe("sweep.point.simulate_s", 0.5)
        collector.observe("sweep.point.simulate_s", 0.25)
        collector.observe("sweep.point.prepare_s", 0.1)
        collector.count("cycles.dynamic.issued_full", 75)
        collector.count("cycles.dynamic.issue_stall", 25)
        report = json.loads(json.dumps(telemetry_report(collector)))
        simulate = report["histograms"]["sweep.point.simulate_s"]
        assert simulate["total"] == 0.75 and simulate["count"] == 2
        assert report["histograms"]["sweep.point.prepare_s"]["count"] == 1
        attribution = report["attribution"]["dynamic"]
        assert attribution["total_cycles"] == 100
        assert attribution["buckets"]["issued_full"] == 75
        assert attribution["shares"]["issue_stall"] == pytest.approx(0.25)

    def test_empty_collector_report_sections(self):
        report = telemetry_report(MetricsCollector())
        assert "phases" not in report
        assert report["attribution"] == {}


class TestProgressLine:
    def test_updates_rewrite_one_line(self):
        stream = io.StringIO()
        progress = ProgressLine(10, stream=stream)
        progress.update(1, "longer text here")
        progress.update(2, "short")
        progress.finish()
        text = stream.getvalue()
        assert text.count("\r") == 2
        assert text.endswith("\n")
        assert "[2/10] short" in text

    def test_finish_without_updates_writes_nothing(self):
        stream = io.StringIO()
        ProgressLine(5, stream=stream).finish()
        assert stream.getvalue() == ""
