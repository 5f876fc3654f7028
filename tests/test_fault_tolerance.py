"""Failure-path tests: watchdogs, retries, isolation, checkpoint/resume.

Covers the fault-tolerant execution layer end to end: engine self-checks
(max_cycles watchdog, trace-accounting divergence), the PointExecutor's
retry/timeout/degradation behaviour, crash-safe cache writes, the sweep
checkpoint manifest, and the CLI acceptance path (a hanging point
degrades to one PointFailure, exit code 3, and --resume reuses every
cached good point without re-running it).
"""

import json
import multiprocessing
import os
import stat
import time

import pytest

from repro.cli import main
from repro.harness.backend import PointTask, ProcessPoolBackend, SerialBackend
from repro.harness.cache import atomic_write_json, result_key
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.errors import (
    PointFailure,
    SimulationHang,
    TransientSimulationError,
    WorkloadPrepareError,
    classify_error,
    is_transient,
)
from repro.harness.executor import ExecutionPolicy, PointExecutor
from repro.harness.runner import (
    SweepRunner,
    geometric_mean,
    reset_zero_ipc_warning,
)
from repro.harness.sweep import run_sweep
from repro.interp.trace import Trace
from repro.machine.config import (
    BranchMode,
    Discipline,
    MachineConfig,
    full_configuration_space,
)
from repro.machine.dynamic import DynamicEngine
from repro.machine.errors import EngineDivergence
from repro.machine.simulator import WorkloadMismatch, simulate
from repro.stats.results import SimResult
from repro.telemetry import MetricsCollector


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


def clone_trace(trace):
    copy = Trace()
    copy.labels = list(trace.labels)
    copy.label_index = dict(trace.label_index)
    copy.block_ids = trace.block_ids
    copy.outcomes = trace.outcomes
    copy.fault_indices = trace.fault_indices
    copy.addresses = trace.addresses
    copy.exit_code = trace.exit_code
    copy.retired_nodes = trace.retired_nodes
    copy.discarded_nodes = trace.discarded_nodes
    return copy


# ----------------------------------------------------------------------
class TestEngineWatchdog:
    def test_dynamic_watchdog_fires(self, grep_prepared):
        config = make_config()
        with pytest.raises(SimulationHang) as info:
            simulate(grep_prepared, config, max_cycles=5)
        assert info.value.benchmark == "grep"
        assert info.value.limit == 5
        assert info.value.cycle > 5

    def test_static_watchdog_fires(self, grep_prepared):
        config = make_config(discipline=Discipline.STATIC, window_blocks=1)
        with pytest.raises(SimulationHang):
            simulate(grep_prepared, config, max_cycles=5)

    def test_env_override(self, grep_prepared, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_CYCLES", "5")
        with pytest.raises(SimulationHang):
            simulate(grep_prepared, make_config())

    def test_generous_limit_is_harmless(self, grep_prepared):
        result = simulate(grep_prepared, make_config(), max_cycles=1 << 40)
        assert result.cycles > 0


class TestEngineSelfCheck:
    def test_divergence_raises_typed_error(self, grep_prepared):
        config = make_config()
        bad_trace = clone_trace(grep_prepared.trace_for(config.branch_mode))
        bad_trace.retired_nodes += 1
        engine = DynamicEngine(
            grep_prepared.templates_for(config.branch_mode), bad_trace,
            config, benchmark="grep",
        )
        with pytest.raises(EngineDivergence) as info:
            engine.run()
        assert info.value.trace_retired == bad_trace.retired_nodes


# ----------------------------------------------------------------------
def _stub_runner(monkeypatch, simulate_point, tmp_path=None):
    collector = MetricsCollector()
    runner = SweepRunner(
        benchmarks=["grep"], collector=collector,
        use_cache=tmp_path is not None,
    )
    if tmp_path is not None:
        runner.cache.path = str(tmp_path / "results.json")
    monkeypatch.setattr(runner, "simulate_point", simulate_point)
    return runner


class TestExecutorRetry:
    def test_transient_failure_retries_then_succeeds(self, monkeypatch):
        config = make_config()
        calls = []

        def flaky(benchmark, cfg):
            calls.append(1)
            if len(calls) < 3:
                raise TransientSimulationError("intermittent I/O flake")
            return fake_result(cfg)

        runner = _stub_runner(monkeypatch, flaky)
        executor = PointExecutor(
            runner, ExecutionPolicy(retries=3, backoff_s=0.001)
        )
        outcome = executor.execute("grep", config)
        assert isinstance(outcome, SimResult)
        assert len(calls) == 3
        assert runner.collector.counters["sweep.point.retried"] == 2
        assert "sweep.point.failed" not in runner.collector.counters

    def test_transient_budget_exhausted_degrades(self, monkeypatch):
        config = make_config()

        def always_flaky(benchmark, cfg):
            raise TransientSimulationError("still flaky")

        runner = _stub_runner(monkeypatch, always_flaky)
        executor = PointExecutor(
            runner, ExecutionPolicy(retries=1, backoff_s=0.001)
        )
        outcome = executor.execute("grep", config)
        assert isinstance(outcome, PointFailure)
        assert outcome.kind == "transient"
        assert outcome.attempts == 2
        assert runner.collector.counters["sweep.point.failed"] == 1

    def test_permanent_failure_not_retried(self, monkeypatch):
        config = make_config()
        calls = []

        def broken(benchmark, cfg):
            calls.append(1)
            raise RuntimeError("deterministic modelling bug")

        runner = _stub_runner(monkeypatch, broken)
        backend = SerialBackend(runner, ExecutionPolicy(retries=5))
        task = PointTask("grep", config,
                         result_key("grep", config, runner.scale))
        settled = []
        tally = run_sweep(runner, backend, [task],
                          lambda done, _tally: settled.append(done))
        outcome = settled[0].failure
        assert isinstance(outcome, PointFailure)
        assert outcome.kind == "unexpected"
        assert len(calls) == 1  # no retry for non-transient errors
        assert tally.failures == [outcome]

    def test_hang_recorded_as_point_failure(self, monkeypatch):
        config = make_config()

        def hangs(benchmark, cfg):
            raise SimulationHang("grep", str(cfg), 10_001, 10_000)

        runner = _stub_runner(monkeypatch, hangs)
        outcome = PointExecutor(runner).execute("grep", config)
        assert isinstance(outcome, PointFailure)
        assert outcome.kind == "hang"
        failed_points = [
            point for point in runner.collector.points if point.get("failed")
        ]
        assert len(failed_points) == 1
        assert failed_points[0]["error"] == "hang"


class TestExecutorTimeout:
    def test_inprocess_timeout_degrades(self, monkeypatch):
        config = make_config()

        def slow(benchmark, cfg, collector=None):
            time.sleep(2.0)
            return fake_result(cfg)

        runner = _stub_runner(monkeypatch, slow)
        executor = PointExecutor(runner, ExecutionPolicy(timeout_s=0.05))
        start = time.perf_counter()
        outcome = executor.execute("grep", config)
        assert time.perf_counter() - start < 1.5
        assert isinstance(outcome, PointFailure)
        assert outcome.kind == "timeout"
        assert runner.collector.counters["sweep.point.timeout"] == 1


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="isolation tests patch the worker via fork inheritance",
)
class TestIsolatedExecution:
    """Points in pool workers (``--jobs N``) cannot take the parent down."""

    def _run_in_pool(self, monkeypatch, runner, simulate_stub,
                     timeout_s=30):
        monkeypatch.setattr(SweepRunner, "workload", lambda self, name: None)
        monkeypatch.setattr(SweepRunner, "prepare_artifacts",
                            lambda self, name: None)
        monkeypatch.setattr(
            "repro.harness.runner.simulate",
            lambda workload, config, collector=None, max_cycles=None,
            **kwargs: simulate_stub(config),
        )
        config = make_config()
        task = PointTask("grep", config, result_key("grep", config, 1))
        backend = ProcessPoolBackend(
            runner, ExecutionPolicy(timeout_s=timeout_s), jobs=2
        )
        outcomes = []
        try:
            run_sweep(runner, backend, [task],
                      lambda outcome, _tally: outcomes.append(outcome))
        finally:
            backend.close()
        assert len(outcomes) == 1
        return outcomes[0]

    def test_isolated_success_round_trips_result(self, monkeypatch, tmp_path):
        collector = MetricsCollector()
        runner = SweepRunner(benchmarks=["grep"], scale=1,
                             collector=collector)
        runner.cache.path = str(tmp_path / "results.json")
        outcome = self._run_in_pool(monkeypatch, runner, fake_result)
        assert outcome.ok
        assert outcome.result.cycles == 1000
        # The parent performed the cache write.
        assert runner.cache.get("grep", make_config(), 1) is not None
        # ... and merged the worker's telemetry.
        assert collector.counters["sweep.cache.miss"] == 1

    def test_isolated_timeout_terminates_worker(self, monkeypatch):
        runner = SweepRunner(
            benchmarks=["grep"], scale=1, collector=MetricsCollector(),
            use_cache=False,
        )
        start = time.perf_counter()
        outcome = self._run_in_pool(
            monkeypatch, runner, lambda cfg: time.sleep(60), timeout_s=0.2
        )
        assert time.perf_counter() - start < 10
        assert isinstance(outcome.failure, PointFailure)
        assert outcome.failure.kind == "timeout"

    def test_isolated_error_keeps_classification(self, monkeypatch):
        def hangs(cfg):
            raise SimulationHang("grep", str(cfg), 11, 10)

        runner = SweepRunner(
            benchmarks=["grep"], scale=1, collector=MetricsCollector(),
            use_cache=False,
        )
        outcome = self._run_in_pool(monkeypatch, runner, hangs)
        assert isinstance(outcome.failure, PointFailure)
        assert outcome.failure.kind == "hang"


# ----------------------------------------------------------------------
class TestWorkloadPrepareErrors:
    def test_mismatch_surfaces_as_prepare_error(self, monkeypatch):
        def exploding_prepared(workload, scale=1):
            raise WorkloadMismatch("grep: enlarged program diverged")

        monkeypatch.setattr(
            "repro.harness.runner.prepared", exploding_prepared
        )
        runner = SweepRunner(benchmarks=["grep"], use_cache=False)
        with pytest.raises(WorkloadPrepareError) as info:
            runner.workload("grep")
        assert isinstance(info.value.cause, WorkloadMismatch)
        assert "diverged" in str(info.value)

    def test_prepare_failure_becomes_point_failure(self, monkeypatch):
        monkeypatch.setattr(
            "repro.harness.runner.prepared",
            lambda workload, scale=1: (_ for _ in ()).throw(
                WorkloadMismatch("grep: enlarged program diverged")
            ),
        )
        runner = SweepRunner(
            benchmarks=["grep"], collector=MetricsCollector(),
            use_cache=False,
        )
        outcome = PointExecutor(runner).execute("grep", make_config())
        assert isinstance(outcome, PointFailure)
        assert outcome.kind == "prepare"

    def test_classification_table(self):
        assert classify_error(WorkloadMismatch("x")) == "prepare"
        assert classify_error(SimulationHang("b", "c", 2, 1)) == "hang"
        assert classify_error(EngineDivergence("b", "c", 1, 2)) == "divergence"
        assert classify_error(KeyError("x")) == "unexpected"
        assert is_transient(TransientSimulationError("x"))
        assert is_transient(OSError("x"))
        assert not is_transient(SimulationHang("b", "c", 2, 1))


class TestZeroIpcAccounting:
    def test_zero_values_counted_and_warned(self, capsys):
        reset_zero_ipc_warning()
        collector = MetricsCollector()
        value = geometric_mean([0.0, 1.0, 0.0], collector=collector)
        assert value > 0.0
        assert collector.counters["sweep.zero_ipc"] == 2
        assert "floored" in capsys.readouterr().err

    def test_clean_values_stay_silent(self, capsys):
        reset_zero_ipc_warning()
        collector = MetricsCollector()
        geometric_mean([2.0, 8.0], collector=collector)
        assert "sweep.zero_ipc" not in collector.counters
        assert capsys.readouterr().err == ""

    def test_warning_fires_once_per_sweep(self, capsys):
        reset_zero_ipc_warning()
        collector = MetricsCollector()
        geometric_mean([0.0, 1.0], collector=collector)
        geometric_mean([0.0, 2.0], collector=collector)
        # Dedup silences the second warning but never the counter.
        assert capsys.readouterr().err.count("floored") == 1
        assert collector.counters["sweep.zero_ipc"] == 2
        reset_zero_ipc_warning()
        geometric_mean([0.0, 1.0], collector=collector)
        assert "floored" in capsys.readouterr().err


class TestCrashSafeWrites:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "data.json"
        atomic_write_json(str(target), {"x": 1})
        assert json.loads(target.read_text()) == {"x": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_atomic_write_honours_umask(self, tmp_path, umask, mode):
        # A cache shared between accounts must stay readable to them:
        # the published file gets 0666 less the umask, as open() gives.
        target = tmp_path / "results.json"
        previous = os.umask(umask)
        try:
            atomic_write_json(str(target), {"generation": 1})
            assert stat.S_IMODE(target.stat().st_mode) == mode
            atomic_write_json(str(target), {"generation": 2})
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert json.loads(target.read_text()) == {"generation": 2}

    def test_failed_write_preserves_old_contents(self, tmp_path, monkeypatch):
        target = tmp_path / "data.json"
        atomic_write_json(str(target), {"generation": 1})

        import repro.harness.cache as cache_mod

        def exploding_fsync(fd):
            # simulate dying with the temp file written, before the replace
            raise RuntimeError("disk full")

        monkeypatch.setattr(cache_mod.os, "fsync", exploding_fsync)
        with pytest.raises(RuntimeError):
            atomic_write_json(str(target), {"generation": 2})
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "sweep.state.json")
        checkpoint = SweepCheckpoint(path, ["grep"], 1)
        checkpoint.mark_done("key-a")
        failure = PointFailure("grep", "cfg", "hang", "watchdog", attempts=1)
        checkpoint.mark_failed("key-b", failure)
        checkpoint.save()

        loaded = SweepCheckpoint.load(path)
        assert loaded is not None
        assert loaded.compatible_with(["grep"], 1)
        assert not loaded.compatible_with(["sort"], 1)
        assert loaded.failures["key-b"].kind == "hang"

    def test_success_clears_recorded_failure(self, tmp_path):
        path = str(tmp_path / "sweep.state.json")
        checkpoint = SweepCheckpoint(path, ["grep"], 1)
        checkpoint.mark_failed(
            "key", PointFailure("grep", "cfg", "transient", "flake")
        )
        checkpoint.mark_done("key")
        checkpoint.save()
        assert "key" not in SweepCheckpoint.load(path).failures

    def test_corrupt_manifest_ignored(self, tmp_path):
        path = tmp_path / "sweep.state.json"
        path.write_text("{not json")
        assert SweepCheckpoint.load(str(path)) is None


# ----------------------------------------------------------------------
class TestSweepAcceptance:
    """The ISSUE acceptance path: hang -> degrade -> exit 3 -> resume."""

    def _install_stub_simulation(self, monkeypatch, hang_config, sim_log):
        monkeypatch.setattr(
            SweepRunner, "workload", lambda self, name: None
        )

        def stub_simulate(workload, config, collector=None, max_cycles=None,
                          **kwargs):
            sim_log.append(config)
            if config == hang_config:
                raise SimulationHang("grep", str(config), 10_001, 10_000)
            return fake_result(config)

        monkeypatch.setattr("repro.harness.runner.simulate", stub_simulate)

    def test_hang_degrades_then_resume_hits_cache(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = list(full_configuration_space())
        hang_config = configs[4]
        sim_log = []
        self._install_stub_simulation(monkeypatch, hang_config, sim_log)

        metrics_1 = tmp_path / "telemetry1.json"
        code = main([
            "sweep", "--benchmarks", "grep", "--limit", "25",
            "--metrics-out", str(metrics_1),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert "1 point(s) failed (hang)" in captured.err
        document = json.loads(metrics_1.read_text())
        assert document["counters"]["sweep.point.failed"] == 1
        assert document["counters"]["sweep.cache.miss"] == 24
        assert len(document["failures"]) == 1
        assert document["failures"][0]["error"] == "hang"
        assert (tmp_path / "sweep.state.json").exists()
        assert len(sim_log) == 25  # 24 good + 1 hanging attempt

        # Resume: every good point must come from the cache, the hang
        # must be carried forward without re-running, exit stays 3.
        del sim_log[:]
        metrics_2 = tmp_path / "telemetry2.json"
        code = main([
            "sweep", "--benchmarks", "grep", "--limit", "0", "--resume",
            "--metrics-out", str(metrics_2),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert sim_log == []  # nothing was re-simulated
        document = json.loads(metrics_2.read_text())
        assert document["counters"]["sweep.cache.hit"] == 24
        assert document["counters"]["sweep.point.skipped_failed"] == 1
        assert "sweep.cache.miss" not in document["counters"]

    def test_retry_failed_reattempts_on_resume(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        configs = list(full_configuration_space())
        hang_config = configs[2]
        sim_log = []
        self._install_stub_simulation(monkeypatch, hang_config, sim_log)

        assert main(["sweep", "--benchmarks", "grep", "--limit", "5"]) == 3
        capsys.readouterr()

        # Heal the hang, then sweep again without --resume: the point is
        # re-attempted and the sweep's first 5 points are now clean.
        monkeypatch.setattr(
            "repro.harness.runner.simulate",
            lambda workload, config, collector=None, max_cycles=None,
            **kwargs: fake_result(config),
        )
        code = main(["sweep", "--benchmarks", "grep", "--limit", "1"])
        capsys.readouterr()
        assert code == 0
