"""Harness tests: result cache, aggregation, figure data plumbing."""

import json
import math

import pytest

from repro.harness.backend import PointTask, SerialBackend
from repro.harness.cache import CACHE_VERSION, ResultCache, result_key
from repro.harness.figures import (
    FIGURE2_BUCKETS,
    _bucketize,
    discipline_lines,
    render_series_table,
)
from repro.harness.runner import SweepRunner, geometric_mean
from repro.harness.sweep import run_sweep
from repro.machine.config import (
    BranchMode,
    Discipline,
    FIGURE5_COMPOSITES,
    MachineConfig,
)
from repro.stats.results import SimResult


def make_config(**overrides):
    defaults = dict(
        discipline=Discipline.DYNAMIC,
        issue_model=8,
        memory="A",
        branch_mode=BranchMode.SINGLE,
        window_blocks=4,
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


def make_result(config, cycles=1000):
    return SimResult(
        benchmark="bench",
        config=config,
        cycles=cycles,
        retired_nodes=4000,
        discarded_nodes=100,
        dynamic_blocks=800,
        mispredicts=10,
        branch_lookups=100,
        faults=2,
        loads=300,
        stores=200,
        cache_accesses=500,
        cache_misses=25,
        write_buffer_hits=40,
        issue_words=1000,
        issued_slots=4100,
        window_block_cycles=2400,
        window_samples=800,
        work_nodes=4000,
    )


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_zero_tolerated(self):
        value = geometric_mean([0.0, 1.0])
        assert value >= 0.0 and math.isfinite(value)


class TestSimResultMetrics:
    def test_retired_per_cycle_uses_work(self):
        result = make_result(make_config(), cycles=2000)
        result.work_nodes = 8000
        assert result.retired_per_cycle == 4.0

    def test_redundancy(self):
        result = make_result(make_config())
        assert result.redundancy == pytest.approx(100 / 4100)

    def test_branch_accuracy(self):
        result = make_result(make_config())
        assert result.branch_accuracy == pytest.approx(0.9)

    def test_cache_hit_rate(self):
        result = make_result(make_config())
        assert result.cache_hit_rate == pytest.approx(0.95)

    def test_summary_is_one_line(self):
        assert "\n" not in make_result(make_config()).summary()

    def test_issue_utilization(self):
        result = make_result(make_config(issue_model=2))  # 1M+1A: width 2
        # 4100 issued datapath nodes over 1000 words x 2 slots.
        assert result.issue_utilization == pytest.approx(4100 / 2000)

    def test_issue_utilization_sequential_width_is_one(self):
        result = make_result(make_config(issue_model=1))
        assert result.issue_utilization == pytest.approx(4100 / 1000)

    def test_issue_utilization_zero_without_counters(self):
        result = make_result(make_config())
        result.issue_words = 0
        assert result.issue_utilization == 0.0

    def test_avg_window_blocks(self):
        result = make_result(make_config())
        assert result.avg_window_blocks == pytest.approx(2400 / 800)

    def test_avg_window_blocks_zero_without_samples(self):
        result = make_result(make_config())
        result.window_samples = 0
        assert result.avg_window_blocks == 0.0


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "results.json"))
        config = make_config()
        cache.put(make_result(config), scale=1)
        loaded = cache.get("bench", config, 1)
        assert loaded is not None
        assert loaded.cycles == 1000
        assert loaded.retired_nodes == 4000
        assert loaded.work_nodes == 4000

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "results.json"))
        assert cache.get("bench", make_config(), 1) is None

    def test_persistence_across_instances(self, tmp_path):
        path = str(tmp_path / "results.json")
        config = make_config()
        ResultCache(path=path).put(make_result(config), scale=1)
        assert ResultCache(path=path).get("bench", config, 1) is not None

    def test_scale_is_part_of_key(self, tmp_path):
        cache = ResultCache(path=str(tmp_path / "results.json"))
        config = make_config()
        cache.put(make_result(config), scale=1)
        assert cache.get("bench", config, 2) is None

    def test_key_distinguishes_configs(self):
        a = result_key("b", make_config(issue_model=3), 1)
        b = result_key("b", make_config(issue_model=4), 1)
        assert a != b
        assert f"v{CACHE_VERSION}" in a

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{not json")
        cache = ResultCache(path=str(path))
        assert cache.get("bench", make_config(), 1) is None

    def test_corrupt_file_counts_telemetry(self, tmp_path):
        from repro.telemetry import MetricsCollector

        path = tmp_path / "results.json"
        path.write_text("{truncated...")
        collector = MetricsCollector()
        cache = ResultCache(path=str(path), collector=collector)
        assert cache.get("bench", make_config(), 1) is None
        assert collector.counters["cache.corrupt"] == 1

    def test_corrupt_entry_recomputed_not_raised(self, tmp_path):
        """A truncated on-disk entry is dropped and recomputed (regression:
        this used to raise KeyError from SimResult reconstruction)."""
        from repro.telemetry import MetricsCollector

        path = tmp_path / "results.json"
        config = make_config()
        ResultCache(path=str(path)).put(make_result(config), scale=1)

        # Truncate the stored entry the way an interrupted writer or an
        # older code version would: fields missing.
        data = json.loads(path.read_text())
        (key,) = data.keys()
        del data[key]["cycles"]
        path.write_text(json.dumps(data))

        collector = MetricsCollector()
        cache = ResultCache(path=str(path), collector=collector)
        assert cache.get("bench", config, 1) is None  # no exception
        assert collector.counters["cache.corrupt"] == 1

        # The recomputed result can be stored and read back again.
        cache.put(make_result(config), scale=1)
        assert cache.get("bench", config, 1) is not None

    def test_entry_with_wrong_shape_recomputed(self, tmp_path):
        path = tmp_path / "results.json"
        config = make_config()
        cache = ResultCache(path=str(path))
        cache.put(make_result(config), scale=1)
        data = json.loads(path.read_text())
        (key,) = data.keys()
        data[key] = "not a dict"
        path.write_text(json.dumps(data))
        assert ResultCache(path=str(path)).get("bench", config, 1) is None


class TestDecodeOnce:
    """A cache hit decodes its entry once; later hits share the result."""

    def test_second_get_returns_the_same_result_without_decoding(
            self, tmp_path, monkeypatch):
        path = str(tmp_path / "results.json")
        config = make_config()
        ResultCache(path=path).put(make_result(config), scale=1)
        cache = ResultCache(path=path)
        first = cache.get("bench", config, 1)
        decoded = []
        real_init = SimResult.__init__

        def counting_init(self, *args, **kwargs):
            decoded.append(kwargs.get("config"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(SimResult, "__init__", counting_init)
        assert cache.get("bench", config, 1) is first
        assert cache.get("bench", config, 1, result_key("bench", config, 1)) \
            is first
        assert decoded == []

    def test_put_drops_the_decoded_result(self, tmp_path):
        path = str(tmp_path / "results.json")
        config = make_config()
        cache = ResultCache(path=path)
        cache.put(make_result(config), scale=1)
        stale = cache.get("bench", config, 1)
        fresh = make_result(config, cycles=2000)
        fresh.extra["attr.busy"] = 1500.0
        fresh.value_predictions = 7  # not stored without a value predictor
        cache.put(fresh, scale=1)
        read = cache.get("bench", config, 1)
        assert read is not stale and read is not fresh
        # Exactly what a fresh cache decodes from the stored dict.
        assert read == ResultCache(path=path).get("bench", config, 1)
        assert read.cycles == 2000
        assert read.extra == {}
        assert read.value_predictions == 0

    def test_chaos_corrupt_on_a_decoded_entry_quarantines_it(self, tmp_path):
        from repro.chaos import (ChaosEngine, FaultPlan, FaultRule, activate,
                                 deactivate)
        from repro.telemetry import MetricsCollector

        path = str(tmp_path / "results.json")
        config = make_config()
        collector = MetricsCollector()
        cache = ResultCache(path=path, collector=collector)
        cache.put(make_result(config), scale=1)
        assert cache.get("bench", config, 1) is not None  # decoded
        activate(ChaosEngine(FaultPlan(seed=1, rules=(
            FaultRule("cache.read", "corrupt", hits=(1,)),
        ), name="corrupt-decoded")))
        try:
            assert cache.get("bench", config, 1) is None
        finally:
            deactivate()
        assert collector.counters["cache.corrupt"] == 1
        assert [entry.name.startswith("entry-") for entry in
                (tmp_path / ".quarantine").iterdir()] == [True]
        # Dropped with its decode: the next read is a miss.
        assert cache.get("bench", config, 1) is None
        assert len(cache) == 0


class TestFigureHelpers:
    def test_discipline_lines_count_and_labels(self):
        lines = discipline_lines()
        labels = [label for label, *_ in lines]
        assert len(labels) == 10
        assert "static/single" in labels
        assert "dyn256/perfect" in labels

    def test_bucketize_fractions_sum_to_one(self):
        from collections import Counter

        histogram = Counter({1: 5, 6: 3, 100: 2})
        fractions = _bucketize(histogram)
        assert len(fractions) == len(FIGURE2_BUCKETS) + 1
        assert sum(fractions) == pytest.approx(1.0)
        assert fractions[0] == pytest.approx(0.5)
        assert fractions[-1] == pytest.approx(0.2)

    def test_figure5_composites_shape(self):
        assert len(FIGURE5_COMPOSITES) == 14
        labels = [f"{m}{letter}" for m, letter in FIGURE5_COMPOSITES]
        assert "5B" in labels and "5D" in labels
        assert labels.index("5B") + 1 == labels.index("5D")

    def test_render_series_table(self):
        table = render_series_table(
            "title", ["c1", "c2"], {"line": [1.0, 2.0], "_hidden": [9.9]}
        )
        assert "title" in table
        assert "line" in table
        assert "_hidden" not in table
        assert "9.9" not in table


def sweep_one(runner, benchmark, config):
    """One point through the sweep loop; its result."""
    task = PointTask(benchmark, config,
                     result_key(benchmark, config, runner.scale))
    tally = run_sweep(runner, SerialBackend(runner), [task])
    assert tally.failures == []
    return tally.results[task.key]


class TestSweepRunnerCaching:
    def test_swept_point_uses_cache(self, tmp_path, monkeypatch,
                                    grep_prepared):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner(benchmarks=["grep"])
        config = make_config(issue_model=2)
        first = sweep_one(runner, "grep", config)
        calls = []
        monkeypatch.setattr(
            "repro.harness.runner.simulate",
            lambda *a, **k: calls.append(1),
        )
        second = sweep_one(runner, "grep", config)
        assert calls == []  # served from the on-disk cache
        assert second.cycles == first.cycles

    def test_unknown_benchmark_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKLOADS", "nonexistent")
        from repro.harness.runner import default_benchmarks

        with pytest.raises(ValueError):
            default_benchmarks()

    def test_benchmark_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKLOADS", "sort,grep")
        from repro.harness.runner import default_benchmarks

        assert default_benchmarks() == ["sort", "grep"]

    def test_swept_point_records_telemetry(self, tmp_path, monkeypatch,
                                           grep_prepared):
        from repro.telemetry import MetricsCollector

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        collector = MetricsCollector()
        runner = SweepRunner(benchmarks=["grep"], collector=collector)
        config = make_config(issue_model=3)
        sweep_one(runner, "grep", config)  # simulated
        sweep_one(runner, "grep", config)  # served from the on-disk cache
        assert collector.counters["sweep.cache.miss"] == 1
        assert collector.counters["sweep.cache.hit"] == 1
        assert len(collector.histograms["sweep.point.wall_s"]) == 1
        assert len(collector.histograms["sweep.point.prepare_s"]) == 1
        assert len(collector.histograms["sweep.point.simulate_s"]) == 1
