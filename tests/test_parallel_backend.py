"""Parallel sweep tests: backend equivalence, merge discipline, crashes.

The contracts under test (see DESIGN.md "Parallel execution"):

* serial and ``--jobs N`` sweeps of the same grid produce identical
  result-cache entries and SimResult values (so ``--resume`` works
  across backends in either direction);
* workers never write cache/checkpoint/telemetry -- everything merges
  through the parent, so a crashed or hung worker degrades to a
  structured ``PointFailure`` and exit code 3, never a corrupt file.

The process-backend tests fork-monkeypatch: pool workers are forked
after the test patches module state, so the patched simulate() is
inherited (same pattern as the isolation tests in
test_fault_tolerance.py).
"""

import json
import multiprocessing
import os
import time

import pytest

import repro.validate
from repro.cli import main
from repro.harness.artifacts import default_artifact_root
from repro.harness.backend import (
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.harness.cache import ResultCache, result_key
from repro.harness.errors import WorkloadPrepareError
from repro.harness.runner import SweepRunner, default_scale
from repro.harness.sweep import grid_tasks, run_sweep
from repro.machine.config import (
    BranchMode,
    Discipline,
    full_configuration_space,
    smoke_configuration_space,
)
from repro.stats.results import SimResult
from repro.telemetry import MetricsCollector

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit monkeypatched module state",
)


def fake_result(config, benchmark="grep", cycles=1000):
    """A result the validation oracle accepts for ``config``."""
    mode = config.branch_mode
    mispredicts = 0 if mode is BranchMode.PERFECT else 10
    faults = 2 if mode is BranchMode.ENLARGED else 0
    cached = not config.memory_config.is_perfect
    window = 800 if config.discipline is Discipline.DYNAMIC else 0
    return SimResult(
        benchmark=benchmark,
        config=config,
        cycles=cycles,
        retired_nodes=4000,
        discarded_nodes=100 if mispredicts or faults else 0,
        dynamic_blocks=800,
        mispredicts=mispredicts,
        branch_lookups=100,
        faults=faults,
        loads=300,
        stores=200,
        cache_accesses=500 if cached else 0,
        cache_misses=25 if cached else 0,
        write_buffer_hits=40,
        issue_words=1000,
        issued_slots=1000,
        window_block_cycles=window,
        window_samples=window,
        work_nodes=4000,
    )


def _install_stub_simulation(monkeypatch, stub):
    """Route every simulation through ``stub(config)`` (workers inherit)."""
    monkeypatch.setattr(SweepRunner, "workload", lambda self, name: None)
    monkeypatch.setattr(SweepRunner, "prepare_artifacts",
                        lambda self, name: None)
    monkeypatch.setattr(
        "repro.harness.runner.simulate",
        lambda workload, config, collector=None, max_cycles=None, **kwargs:
        stub(config),
    )


# ----------------------------------------------------------------------
class TestSnapshotMerge:
    def test_null_collector_snapshot_is_empty(self):
        from repro.telemetry.collector import NULL_COLLECTOR

        assert NULL_COLLECTOR.snapshot() == {}
        NULL_COLLECTOR.merge({"counters": {"x": 1}})  # no-op, no error
        assert NULL_COLLECTOR.counters == {}

    def test_merge_equals_direct_recording(self):
        def record(collector, offset):
            collector.count("points", 2)
            collector.observe("wall_s", 0.5 + offset)

        worker_a, worker_b, direct = (
            MetricsCollector(), MetricsCollector(), MetricsCollector()
        )
        record(worker_a, 0.0)
        record(worker_b, 1.0)
        record(direct, 0.0)
        record(direct, 1.0)

        merged = MetricsCollector()
        merged.merge(worker_a.snapshot())
        merged.merge(worker_b.snapshot())
        assert merged.counters == direct.counters
        assert merged.histograms == direct.histograms

    def test_snapshot_is_a_copy(self):
        collector = MetricsCollector()
        collector.count("n")
        snap = collector.snapshot()
        collector.count("n")
        assert snap["counters"]["n"] == 1


class TestPlanTasks:
    def test_benchmark_major_groups_each_benchmark(self):
        configs = list(smoke_configuration_space())
        names = ["grep", "sort"]
        tasks = grid_tasks("smoke", names, scale=1)
        assert [t.benchmark for t in tasks] == ["grep"] * 40 + ["sort"] * 40
        assert [t.config for t in tasks] == configs * 2
        assert [t.key for t in tasks[:2]] == [
            result_key("grep", configs[0], 1),
            result_key("grep", configs[1], 1),
        ]
        # A limit keeps the first N points of that same order.
        assert grid_tasks("smoke", names, 1, limit=3) == tasks[:3]


class TestMakeBackend:
    def test_jobs_1_is_serial(self):
        runner = SweepRunner(benchmarks=["grep"], use_cache=False)
        assert isinstance(make_backend(runner, jobs=1), SerialBackend)

    def test_jobs_n_is_process_pool(self):
        runner = SweepRunner(benchmarks=["grep"], use_cache=False)
        backend = make_backend(runner, jobs=4)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.jobs == 4
        backend.close()

    def test_jobs_zero_is_rejected(self, capsys):
        assert main(["sweep", "--jobs", "0"]) == 1


# ----------------------------------------------------------------------
@fork_only
class TestSerialParallelEquivalence:
    def test_jobs4_cache_is_identical_to_serial(self, tmp_path, monkeypatch,
                                                grep_prepared, capsys):
        # Share prepared artifacts (grep_prepared already materialized
        # them); isolate result caches per backend.
        monkeypatch.setenv(
            "REPRO_ARTIFACT_DIR", os.path.abspath(default_artifact_root())
        )
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"

        monkeypatch.setenv("REPRO_CACHE_DIR", str(serial_dir))
        code = main([
            "sweep", "--benchmarks", "grep", "--limit", "6",
            "--metrics-out", str(serial_dir / "telemetry.json"),
        ])
        assert code == 0

        monkeypatch.setenv("REPRO_CACHE_DIR", str(parallel_dir))
        code = main([
            "sweep", "--benchmarks", "grep", "--limit", "6", "--jobs", "4",
            "--metrics-out", str(parallel_dir / "telemetry.json"),
        ])
        assert code == 0
        capsys.readouterr()

        serial = json.loads((serial_dir / "results.json").read_text())
        parallel = json.loads((parallel_dir / "results.json").read_text())
        assert len(serial) == 6
        # Identical keys AND identical SimResult values, byte for byte
        # once key order is canonicalized.
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

        counters_s = json.loads(
            (serial_dir / "telemetry.json").read_text()
        )["counters"]
        counters_p = json.loads(
            (parallel_dir / "telemetry.json").read_text()
        )["counters"]
        assert counters_s == counters_p
        assert counters_s["sweep.cache.miss"] == 6

    def test_serial_resume_consumes_parallel_cache(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _install_stub_simulation(monkeypatch, fake_result)
        assert main(["sweep", "--benchmarks", "grep", "--limit", "5",
                     "--jobs", "2"]) == 0
        capsys.readouterr()

        metrics = tmp_path / "telemetry.json"
        code = main([
            "sweep", "--benchmarks", "grep", "--limit", "0", "--resume",
            "--metrics-out", str(metrics),
        ])
        capsys.readouterr()
        assert code == 0
        document = json.loads(metrics.read_text())
        assert document["counters"]["sweep.cache.hit"] == 5
        assert "sweep.cache.miss" not in document["counters"]
        assert document["context"] == {"backend": "serial", "jobs": 1}


# ----------------------------------------------------------------------
@fork_only
class TestOneSettleStep:
    """Whichever backend ran a point, the sweep loop settles it once."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_put_per_fresh_point_and_one_observe_per_point(
            self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _install_stub_simulation(monkeypatch, fake_result)
        puts, observed = [], []
        real_put = ResultCache.put
        real_oracle = repro.validate.run_oracle

        def counting_put(cache, result, scale):
            puts.append(result_key(result.benchmark, result.config, scale))
            real_put(cache, result, scale)

        def counting_oracle(results, **kwargs):
            results = list(results)
            observed.extend(
                result_key(result.benchmark, result.config, kwargs["scale"])
                for result in results
            )
            return real_oracle(results, **kwargs)

        monkeypatch.setattr(ResultCache, "put", counting_put)
        monkeypatch.setattr(repro.validate, "run_oracle", counting_oracle)
        keys = sorted(task.key for task in
                      grid_tasks("full", ["grep"], default_scale(), 5))

        assert main(["sweep", "--benchmarks", "grep", "--limit", "5",
                     "--jobs", jobs]) == 0
        assert sorted(puts) == keys
        assert sorted(observed) == keys

        # Warm: the five cache hits feed the oracle once each and are
        # not written back.
        del puts[:], observed[:]
        assert main(["sweep", "--benchmarks", "grep", "--limit", "0",
                     "--jobs", jobs]) == 0
        capsys.readouterr()
        assert puts == []
        assert sorted(observed) == keys

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_point_listed_twice_is_one_result(self, tmp_path, monkeypatch,
                                               jobs):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _install_stub_simulation(monkeypatch, fake_result)
        runner = SweepRunner(benchmarks=["grep"])
        [task] = grid_tasks("smoke", ["grep"], runner.scale, 1)
        backend = make_backend(runner, jobs=jobs)
        try:
            tally = run_sweep(runner, backend, [task, task],
                              lambda _outcome, _tally: None)
        finally:
            backend.close()
        assert tally.resolved == 2
        assert list(tally.results) == [task.key]
        assert repro.validate.run_oracle(
            tally.results.values()).checked_results == 1


# ----------------------------------------------------------------------
@fork_only
class TestProcessBackendFailurePaths:
    def test_worker_crash_degrades_without_corrupting_state(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = list(full_configuration_space())
        poison = configs[2]

        def stub(config):
            if config == poison:
                os._exit(13)  # hard worker death: BrokenProcessPool
            return fake_result(config)

        _install_stub_simulation(monkeypatch, stub)
        code = main(["sweep", "--benchmarks", "grep", "--limit", "8",
                     "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "worker-crash" in captured.err

        # Checkpoint and cache are both valid JSON; the poison point is
        # a worker-crash failure; every point is accounted for exactly
        # once (crash neighbours may degrade too -- bounded by the
        # dispatch window -- but nothing is lost or double-counted).
        state = json.loads((tmp_path / "sweep.state.json").read_text())
        cache = json.loads((tmp_path / "results.json").read_text())
        kinds = {entry["failure"]["kind"] for entry in state["failures"]}
        assert kinds == {"worker-crash"}
        failed_keys = {entry["key"] for entry in state["failures"]}
        assert len(cache) + len(failed_keys) == 8
        assert not (set(cache) & failed_keys)

    def test_crash_then_retry_failed_heals(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = list(full_configuration_space())
        poison = configs[1]

        def crashing(config):
            if config == poison:
                os._exit(13)
            return fake_result(config)

        _install_stub_simulation(monkeypatch, crashing)
        assert main(["sweep", "--benchmarks", "grep", "--limit", "4",
                     "--jobs", "2"]) == 3
        capsys.readouterr()

        _install_stub_simulation(monkeypatch, fake_result)
        code = main(["sweep", "--benchmarks", "grep", "--limit", "4",
                     "--jobs", "2"])
        capsys.readouterr()
        assert code == 0
        # Every previously crashed or cached point of the original grid
        # slice is now a clean cache entry (--limit counts only fresh
        # points, so the second sweep may have simulated further ones
        # too).
        from repro.harness.cache import result_key

        cache = json.loads((tmp_path / "results.json").read_text())
        for config in configs[:4]:
            assert result_key("grep", config, 1) in cache

    def test_wedged_point_times_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = list(full_configuration_space())
        poison = configs[0]

        def stub(config):
            if config == poison:
                time.sleep(30)
            return fake_result(config)

        _install_stub_simulation(monkeypatch, stub)
        code = main(["sweep", "--benchmarks", "grep", "--limit", "3",
                     "--jobs", "2", "--timeout", "0.5", "--retries", "0"])
        captured = capsys.readouterr()
        assert code == 3
        assert "timeout" in captured.err
        state = json.loads((tmp_path / "sweep.state.json").read_text())
        assert [entry["failure"]["kind"] for entry in state["failures"]] == [
            "timeout"
        ]
        assert len(json.loads((tmp_path / "results.json").read_text())) == 2

    def test_prepare_failure_fails_the_benchmark_points(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def broken_prepare(self, name):
            raise WorkloadPrepareError(name, RuntimeError("no compiler"))

        monkeypatch.setattr(SweepRunner, "prepare_artifacts", broken_prepare)
        code = main(["sweep", "--benchmarks", "grep", "--limit", "3",
                     "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert "prepare" in captured.err
        state = json.loads((tmp_path / "sweep.state.json").read_text())
        assert len(state["failures"]) == 3
        assert all(
            entry["failure"]["kind"] == "prepare"
            for entry in state["failures"]
        )
        assert not (tmp_path / "results.json").exists()
