"""Fault-injection layer tests: plans, the engine, hardened sites.

Covers the FaultPlan document format and its validation, the seeded
deterministic ChaosEngine, the zero-cost disabled path (tripwire), the
quarantine behaviour of the cache and artifact stores, journal
torn-tail healing, admission Retry-After hints, the retrying service
client, and small end-to-end convergence drills through ``run_chaos``.
"""

import hashlib
import json
import os

import pytest

from repro.chaos import (
    ChaosCrash,
    ChaosEngine,
    ChaosIOError,
    FaultPlan,
    FaultRule,
    PlanError,
    activate,
    current,
    deactivate,
    smoke_plan,
)
from repro.harness.cache import ResultCache
from repro.harness.checkpoint import SweepCheckpoint
from repro.harness.errors import SimulationHang, classify_error, is_transient
from repro.harness.executor import ExecutionPolicy, PointExecutor
from repro.harness.runner import SweepRunner
from repro.machine.config import (
    BranchMode,
    Discipline,
    MachineConfig,
)
from repro.service.client import (
    AdmissionRejected,
    JobNotFound,
    ServiceClient,
    ServiceError,
)
from repro.service.jobs import GridSpec, JobJournal
from repro.service.scheduler import AdmissionError, JobScheduler
from repro.stats.results import SimResult
from repro.telemetry import MetricsCollector


def make_config(**overrides):
    defaults = dict(
        discipline=Discipline.STATIC,
        issue_model=2,
        memory="A",
        branch_mode=BranchMode.SINGLE,
        window_blocks=1,
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


def fake_result(config, benchmark="grep", cycles=1000):
    return SimResult(
        benchmark=benchmark, config=config, cycles=cycles,
        retired_nodes=4 * cycles, discarded_nodes=100, dynamic_blocks=800,
        mispredicts=10, branch_lookups=100, faults=2, loads=300,
        stores=200, cache_accesses=500, cache_misses=25,
        write_buffer_hits=40, issue_words=1000, issued_slots=4100,
    )


@pytest.fixture(autouse=True)
def no_leaked_engine():
    """Every test starts and ends with chaos disabled."""
    if current() is not None:
        deactivate()
    yield
    if current() is not None:
        deactivate()


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = smoke_plan(7, "service")
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.seed == 7
        assert clone.name == "smoke-service"

    def test_smoke_plan_coverage_floor(self):
        for mode, min_sites in (("sweep", 8), ("service", 9)):
            plan = smoke_plan(7, mode)
            sites = {rule.site for rule in plan.rules}
            kinds = {rule.kind for rule in plan.rules}
            assert len(sites) >= min_sites
            assert len(kinds) >= 6

    def test_schema_checked(self):
        raw = json.loads(smoke_plan(7, "sweep").to_json())
        raw["schema"] = "something-else"
        with pytest.raises(PlanError):
            FaultPlan.from_json(json.dumps(raw))

    def test_unknown_site_rejected(self):
        with pytest.raises(PlanError):
            FaultRule("no.such.site", "delay", hits=(1,))

    def test_kind_must_match_site(self):
        # cache.read tolerates corruption and latency, never a crash.
        with pytest.raises(PlanError):
            FaultRule("cache.read", "crash", hits=(1,))

    def test_rule_must_be_able_to_fire(self):
        with pytest.raises(PlanError):
            FaultRule("cache.read", "corrupt")  # no hits, p=0

    def test_hits_are_positive_ints(self):
        with pytest.raises(PlanError):
            FaultRule("cache.read", "corrupt", hits=(0,))

    def test_budget_kind_needs_budget(self):
        with pytest.raises(PlanError):
            FaultRule("engine.budget", "budget", hits=(1,))
        rule = FaultRule("engine.budget", "budget", hits=(1,), budget=64)
        assert rule.budget == 64

    def test_unknown_field_rejected(self):
        raw = FaultRule("cache.read", "corrupt", hits=(1,)).to_dict()
        raw["surprise"] = True
        with pytest.raises(PlanError):
            FaultRule.from_dict(raw)

    def test_unknown_errno_rejected(self):
        with pytest.raises(PlanError):
            FaultRule("cache.write", "io-error", hits=(1,),
                      errno_name="ENOSUCHERRNO")


# ----------------------------------------------------------------------
class TestChaosEngine:
    def plan(self, *rules, seed=7):
        return FaultPlan(seed=seed, rules=tuple(rules), name="test")

    def test_hit_indexing_is_deterministic(self):
        plan = self.plan(FaultRule("cache.read", "corrupt", hits=(2, 4)))
        for _ in range(2):  # two identical engines, identical outcomes
            eng = ChaosEngine(plan)
            fired = [eng.act("cache.read") is not None
                     for _ in range(5)]
            assert fired == [False, True, False, True, False]

    def test_io_error_has_errno(self):
        import errno

        plan = self.plan(FaultRule("cache.write", "io-error", hits=(1,)))
        eng = ChaosEngine(plan)
        with pytest.raises(ChaosIOError) as excinfo:
            eng.act("cache.write")
        assert excinfo.value.errno == errno.ENOSPC
        assert isinstance(excinfo.value, OSError)

    def test_crash_raises_and_is_transient(self):
        plan = self.plan(FaultRule("point.simulate", "crash", hits=(1,)))
        eng = ChaosEngine(plan)
        with pytest.raises(ChaosCrash) as excinfo:
            eng.act("point.simulate")
        assert is_transient(excinfo.value)
        assert classify_error(excinfo.value) == "worker-crash"

    def test_max_injections_bounds_p_rules(self):
        plan = self.plan(
            FaultRule("cache.read", "delay", p=1.0, max_injections=2,
                      delay_s=0.0)
        )
        eng = ChaosEngine(plan)
        fired = [eng.act("cache.read") is not None
                 for _ in range(5)]
        assert fired.count(True) == 2

    def test_p_rules_seeded(self):
        rule = FaultRule("cache.read", "delay", p=0.5, max_injections=50,
                         delay_s=0.0)
        runs = []
        for _ in range(2):
            eng = ChaosEngine(self.plan(rule, seed=123))
            runs.append(tuple(
                eng.act("cache.read") is not None
                for _ in range(40)
            ))
        assert runs[0] == runs[1]
        assert any(runs[0])

    def test_counters(self):
        plan = self.plan(FaultRule("cache.read", "corrupt", hits=(1,)))
        eng = ChaosEngine(plan)
        eng.act("cache.read")
        eng.mark_recovered("cache.read")
        assert eng.injected == {"cache.read/corrupt": 1}
        assert eng.recovered == {"cache.read": 1}

    def test_activation_lifecycle(self):
        plan = self.plan(FaultRule("cache.read", "corrupt", hits=(1,)))
        eng = ChaosEngine(plan)
        assert current() is None
        activate(eng)
        assert current() is eng
        with pytest.raises(RuntimeError):
            activate(ChaosEngine(plan))
        deactivate()
        assert current() is None


# ----------------------------------------------------------------------
class TestDisabledPathTripwire:
    """With no active engine, no hardened site may touch the engine."""

    def test_sites_never_call_engine_when_disabled(
        self, tmp_path, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise AssertionError("chaos engine touched while disabled")

        monkeypatch.setattr(ChaosEngine, "act", boom)
        monkeypatch.setattr(ChaosEngine, "mark_recovered", boom)

        config = make_config()
        cache = ResultCache(path=str(tmp_path / "results.json"))
        cache.put(fake_result(config), scale=1)
        assert cache.get("grep", config, 1) is not None
        checkpoint = SweepCheckpoint(
            str(tmp_path / "sweep.state.json"), ["grep"], 1, total=1
        )
        checkpoint.mark_done("some-key")
        checkpoint.save()
        journal = JobJournal(str(tmp_path / "journal.jsonl"))
        journal.append({"event": "accept", "job_id": "j-1"})
        journal.close()
        assert len(JobJournal.replay(str(tmp_path / "journal.jsonl"))) == 1


# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_file_is_quarantined_not_deleted(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("{ not json", encoding="utf-8")
        collector = MetricsCollector()
        cache = ResultCache(path=str(path), collector=collector)
        assert cache.get("grep", make_config(), 1) is None
        assert collector.counters["cache.corrupt"] == 1
        assert collector.counters["cache.quarantined"] == 1
        assert not path.exists()
        pen = tmp_path / ".quarantine"
        assert (pen / "results.json").read_text(
            encoding="utf-8"
        ) == "{ not json"

    def test_second_corrupt_file_gets_a_numbered_sidecar(self, tmp_path):
        path = tmp_path / "results.json"
        pen = tmp_path / ".quarantine"
        for garbage in ("{ not json", "[]"):
            path.write_text(garbage, encoding="utf-8")
            collector = MetricsCollector()
            cache = ResultCache(path=str(path), collector=collector)
            assert cache.get("grep", make_config(), 1) is None
            assert collector.counters["cache.quarantined"] == 1
        assert sorted(p.name for p in pen.iterdir()) == [
            "results.json", "results.json.1",
        ]
        # The first sidecar is never overwritten by the second.
        assert (pen / "results.json").read_text(
            encoding="utf-8"
        ) == "{ not json"
        assert (pen / "results.json.1").read_text(encoding="utf-8") == "[]"

    def test_second_corrupt_entry_gets_a_numbered_sidecar(self, tmp_path):
        path = tmp_path / "results.json"
        config = make_config()
        for cycles in ("not-a-number", "still-not"):
            seed_cache = ResultCache(path=str(path))
            seed_cache.put(fake_result(config), scale=1)
            document = json.loads(path.read_text(encoding="utf-8"))
            (key,) = document.keys()
            document[key] = {"cycles": cycles}
            path.write_text(json.dumps(document), encoding="utf-8")
            assert ResultCache(path=str(path)).get("grep", config, 1) is None
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]
        pen = tmp_path / ".quarantine"
        first = pen / f"entry-{digest}.json"
        second = pen / f"entry-{digest}.1.json"
        assert sorted(pen.iterdir()) == sorted([first, second])
        assert json.loads(first.read_text(encoding="utf-8"))["raw"] == {
            "cycles": "not-a-number",
        }
        assert json.loads(second.read_text(encoding="utf-8"))["raw"] == {
            "cycles": "still-not",
        }

    def test_corrupt_entry_gets_a_sidecar(self, tmp_path):
        path = tmp_path / "results.json"
        config = make_config()
        seed_cache = ResultCache(path=str(path))
        seed_cache.put(fake_result(config), scale=1)
        document = json.loads(path.read_text(encoding="utf-8"))
        (key,) = document.keys()
        document[key] = {"cycles": "not-a-number"}
        path.write_text(json.dumps(document), encoding="utf-8")

        collector = MetricsCollector()
        cache = ResultCache(path=str(path), collector=collector)
        assert cache.get("grep", config, 1) is None
        assert collector.counters["cache.corrupt"] == 1
        pen = tmp_path / ".quarantine"
        sidecars = list(pen.glob("entry-*.json"))
        assert len(sidecars) == 1
        preserved = json.loads(sidecars[0].read_text(encoding="utf-8"))
        assert preserved["key"] == key
        assert preserved["raw"] == {"cycles": "not-a-number"}
        # The bad entry was dropped; a recompute-and-put must stick.
        cache.put(fake_result(config), scale=1)
        assert cache.get("grep", config, 1) is not None

    def test_failed_flush_retries_on_next_put(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache_module

        path = tmp_path / "results.json"
        cache = ResultCache(path=str(path))
        real_write = cache_module.atomic_write_json
        attempts = {"n": 0}

        def flaky(*args, **kwargs):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise OSError(28, "disk full")
            return real_write(*args, **kwargs)

        monkeypatch.setattr(cache_module, "atomic_write_json", flaky)
        config_a = make_config()
        config_b = make_config(memory="C")
        with pytest.raises(OSError):
            cache.put(fake_result(config_a), scale=1)
        cache.put(fake_result(config_b), scale=1)  # flush retried here
        document = json.loads(path.read_text(encoding="utf-8"))
        assert len(document) == 2  # the first put's entry landed too


class TestArtifactQuarantine:
    def test_corrupt_artifact_dir_is_quarantined(self, tmp_path):
        from repro.harness.artifacts import ArtifactStore
        from repro.workloads import WORKLOADS

        store = ArtifactStore(root=str(tmp_path),
                              collector=MetricsCollector())
        workload = WORKLOADS["grep"]
        loaded = workload.prepare(scale=1)
        directory = store.save(workload, 1, loaded)
        assert store.load(workload, 1) is not None

        # Garble a payload file without touching the manifest.
        (victim,) = [
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.endswith("single.trace")
        ]
        with open(victim, "w", encoding="utf-8") as handle:
            handle.write("garbage")

        assert store.load(workload, 1) is None
        assert store.collector.counters["artifacts.quarantined"] == 1
        assert not os.path.exists(directory)
        pen = os.path.join(str(tmp_path), ".quarantine")
        assert os.listdir(pen) == [os.path.basename(directory)]
        # The store recovers by re-preparing into a clean directory.
        store.save(workload, 1, loaded)
        assert store.load(workload, 1) is not None


# ----------------------------------------------------------------------
class TestJournalTornTail:
    def record(self, n):
        return {"event": "accept", "job_id": f"j-{n}", "seq": n}

    def test_torn_tail_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.append(self.record(1))
        journal.append(self.record(2))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "acc')  # the crash artefact
        collector = MetricsCollector()
        records = JobJournal.replay(path, collector=collector)
        assert [record["seq"] for record in records] == [1, 2]
        assert collector.counters["journal.torn_tail"] == 1
        assert "journal.garbled" not in collector.counters

    def test_garbled_middle_record_counted_separately(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.append(self.record(1))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("#### flipped bits ####\n")
        journal = JobJournal(path)
        journal.append(self.record(3))
        journal.close()
        collector = MetricsCollector()
        records = JobJournal.replay(path, collector=collector)
        assert [record["seq"] for record in records] == [1, 3]
        assert collector.counters["journal.garbled"] == 1

    def test_heal_on_open_terminates_fragment(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = JobJournal(path)
        journal.append(self.record(1))
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "torn')  # no newline: writer died
        journal = JobJournal(path)
        journal.append(self.record(2))  # must not glue onto the fragment
        journal.close()
        records = JobJournal.replay(path)
        assert [record["seq"] for record in records] == [1, 2]


class TestCheckpointWriteFailure:
    def test_save_failure_tolerated_and_retried(self, tmp_path, monkeypatch):
        import repro.harness.checkpoint as checkpoint_module

        path = str(tmp_path / "sweep.state.json")
        checkpoint = SweepCheckpoint(path, ["grep"], 1, total=10,
                                     save_interval=1)
        real_write = checkpoint_module.atomic_write_json
        fail = {"on": True}

        def flaky(*args, **kwargs):
            if fail["on"]:
                raise OSError(28, "disk full")
            return real_write(*args, **kwargs)

        monkeypatch.setattr(checkpoint_module, "atomic_write_json", flaky)
        checkpoint.mark_done("key-1")  # save fails, swallowed
        assert not os.path.exists(path)
        fail["on"] = False
        checkpoint.mark_done("key-2")  # retried save lands both keys
        loaded = SweepCheckpoint.load(path)
        assert loaded is not None
        assert loaded.done == {"key-1", "key-2"}


# ----------------------------------------------------------------------
class TestRetryAfterHints:
    def scheduler(self, tmp_path, **kwargs):
        runner = SweepRunner(benchmarks=["grep"], scale=1, use_cache=False)
        return JobScheduler(
            runner, journal_path=str(tmp_path / "journal.jsonl"), **kwargs
        )

    def spec(self, limit=1):
        return GridSpec.from_dict(
            {"benchmarks": ["grep"], "grid": "smoke", "limit": limit}
        )

    def test_stopped_carries_retry_after(self, tmp_path):
        scheduler = self.scheduler(tmp_path)
        scheduler._stop_requested = True
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(self.spec())
        assert excinfo.value.reason == "stopped"
        assert excinfo.value.http_status == 503
        assert excinfo.value.retry_after_s == 10.0

    def test_job_too_large_carries_retry_after(self, tmp_path):
        scheduler = self.scheduler(tmp_path, max_job_points=2)
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(self.spec(limit=5))
        assert excinfo.value.reason == "job-too-large"
        assert excinfo.value.retry_after_s == 60.0

    def test_journal_error_rejection_rolls_back_seq(
        self, tmp_path, monkeypatch
    ):
        scheduler = self.scheduler(tmp_path)

        def broken_append(record):
            raise OSError(28, "disk full")

        original = scheduler._journal.append
        monkeypatch.setattr(scheduler._journal, "append", broken_append)
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(self.spec())
        assert excinfo.value.reason == "journal-error"
        assert excinfo.value.http_status == 503
        assert excinfo.value.retry_after_s == 1.0
        assert scheduler.stats["jobs.rejected.journal-error"] == 1
        # Nothing was registered: no job, no queue entry ...
        assert scheduler.jobs() == []
        # ... and the seq rolled back, so the retry gets the id the
        # failed attempt would have had (identical to a fault-free run).
        monkeypatch.setattr(scheduler._journal, "append", original)
        job = scheduler.submit(self.spec())
        assert job["job_id"].endswith("-0001")


# ----------------------------------------------------------------------
class TestClientRetries:
    def client(self, responses, **kwargs):
        """A client whose transport is scripted: exceptions or payloads."""
        import random

        sleeps = []
        kwargs.setdefault("retries", 3)
        kwargs.setdefault("backoff_s", 0.25)
        kwargs.setdefault("rng", random.Random(7))
        client = ServiceClient("http://127.0.0.1:1",
                               sleep=sleeps.append, **kwargs)
        script = list(responses)

        def scripted(method, path, body=None, timeout_s=None):
            action = script.pop(0)
            if isinstance(action, Exception):
                raise action
            return action

        client._request_once = scripted
        return client, sleeps

    def test_admission_rejection_retried_with_hint(self):
        client, sleeps = self.client([
            AdmissionRejected("queue-full", "full", retry_after_s=0.1),
            AdmissionRejected("queue-full", "full", retry_after_s=0.1),
            {"ok": True},
        ])
        assert client.health() == {"ok": True}
        assert len(sleeps) == 2
        # Retry-After overrides the exponential base; jitter is bounded
        # by half the configured backoff.
        for delay in sleeps:
            assert 0.1 <= delay <= 0.1 + 0.125

    def test_nonretryable_reason_raises_immediately(self):
        client, sleeps = self.client([
            AdmissionRejected("scale-mismatch", "wrong scale"),
            {"ok": True},
        ])
        with pytest.raises(AdmissionRejected):
            client.health()
        assert sleeps == []

    def test_transport_errors_retried(self):
        flaky = ServiceError("connection dropped")
        flaky.retryable = True
        client, sleeps = self.client([flaky, {"ok": True}])
        assert client.health() == {"ok": True}
        assert len(sleeps) == 1

    def test_job_not_found_never_retried(self):
        client, sleeps = self.client([JobNotFound("no such job"), {}])
        with pytest.raises(JobNotFound):
            client.health()
        assert sleeps == []

    def test_retries_exhausted_reraises(self):
        flaky = ServiceError("down")
        flaky.retryable = True
        client, sleeps = self.client([flaky] * 3, retries=2)
        with pytest.raises(ServiceError):
            client.health()
        assert len(sleeps) == 2

    def test_backoff_is_seeded_and_capped(self):
        import random

        delays = []
        for _ in range(2):
            client = ServiceClient(
                "http://127.0.0.1:1", retries=5, backoff_s=0.25,
                max_backoff_s=1.0, rng=random.Random(42),
            )
            delays.append([
                client._retry_delay(attempt, None)
                for attempt in range(1, 6)
            ])
        assert delays[0] == delays[1]  # same seed, same jitter
        assert all(delay <= 1.0 + 0.125 for delay in delays[0])


# ----------------------------------------------------------------------
class TestExecutorRetryKinds:
    def test_hang_retried_only_when_granted(self, tmp_path):
        for retry_kinds, expect_ok in (((), False), (("hang",), True)):
            runner = SweepRunner(benchmarks=["grep"], scale=1,
                                 use_cache=False)
            config = make_config()
            calls = {"n": 0}

            def hang_once(benchmark, cfg):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise SimulationHang("grep", str(cfg), 64, 64)
                return fake_result(cfg)

            runner.simulate_point = hang_once
            executor = PointExecutor(runner, ExecutionPolicy(
                retries=2, backoff_s=0.0, retry_kinds=retry_kinds,
            ))
            outcome = executor.execute("grep", config)
            if expect_ok:
                assert isinstance(outcome, SimResult)
                assert calls["n"] == 2
            else:
                assert outcome.kind == "hang"
                assert calls["n"] == 1


# ----------------------------------------------------------------------
class TestEndToEndChaos:
    def test_engine_budget_fault_trips_watchdog(self):
        plan = FaultPlan(seed=7, rules=(
            FaultRule("engine.budget", "budget", hits=(1,), budget=64),
        ), name="budget-test")
        runner = SweepRunner(benchmarks=["grep"], scale=1, use_cache=False)
        activate(ChaosEngine(plan))
        try:
            with pytest.raises(SimulationHang):
                runner.simulate_point("grep", make_config())
        finally:
            deactivate()
        # Fault-free rerun of the same point succeeds.
        result = runner.simulate_point("grep", make_config())
        assert result.cycles > 64

    def test_sweep_mode_converges(self):
        from repro.chaos.harness import run_chaos

        plan = FaultPlan(seed=11, rules=(
            FaultRule("cache.write", "io-error", hits=(1,)),
            FaultRule("cache.read", "corrupt", hits=(2,)),
            FaultRule("point.simulate", "crash", hits=(3,)),
        ), name="sweep-mini")
        report = run_chaos("sweep", plan, limit=4)
        assert report.converged, report.problems
        assert report.injected == {
            "cache.write/io-error": 1,
            "cache.read/corrupt": 1,
            "point.simulate/crash": 1,
        }
        assert report.recovered["cache.write"] == 1
        assert report.recovered["cache.read"] == 1
        assert report.recovered["executor.retry"] == 1

    def test_service_mode_converges(self):
        from repro.chaos.harness import run_chaos

        plan = FaultPlan(seed=11, rules=(
            FaultRule("journal.append", "torn-write", hits=(3,)),
            FaultRule("journal.append", "io-error", hits=(4,)),
            FaultRule("http.request", "http-503", hits=(2,)),
        ), name="service-mini")
        report = run_chaos("service", plan, limit=4)
        assert report.converged, report.problems
        assert set(report.job_states.values()) == {"done"}
        assert len(report.job_states) == 2
        assert report.injected["journal.append/torn-write"] == 1
        assert report.injected["journal.append/io-error"] == 1
        assert report.recovered["journal.append"] >= 1


class TestChaosCLI:
    def test_plan_and_smoke_are_exclusive(self, tmp_path):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text(smoke_plan(7, "sweep").to_json(),
                             encoding="utf-8")
        assert main(["chaos", "--smoke", "--plan", str(plan_path)]) == 1

    def test_bad_plan_file_is_fatal(self, tmp_path):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        plan_path.write_text("{ not json", encoding="utf-8")
        assert main(["chaos", "--plan", str(plan_path)]) == 1

    def test_custom_plan_drill_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        plan = FaultPlan(seed=5, rules=(
            FaultRule("cache.write", "io-error", hits=(1,)),
        ), name="cli-mini")
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json(), encoding="utf-8")
        plan_out = tmp_path / "effective.json"
        exit_code = main([
            "chaos", "--plan", str(plan_path), "--limit", "2",
            "--mode", "sweep", "--plan-out", str(plan_out),
        ])
        assert exit_code == 0
        assert FaultPlan.from_json(
            plan_out.read_text(encoding="utf-8")
        ) == plan
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"): out.rindex("}") + 1])
        assert report["converged"] is True
