"""Simulation service tests: job model, scheduler, journal, HTTP API.

The contracts under test (see DESIGN.md "Service layer"):

* two consecutive identical submits -- the second completes entirely
  from the result cache (zero re-simulations, zero re-prepares) and the
  cache it leaves behind is byte-identical to a serial batch sweep of
  the same grid;
* admission control is typed: queue-full / job-too-large / scale
  -mismatch / stopped each carry a machine-readable reason and the HTTP
  status they map to;
* a daemon restart replays the journal -- finished jobs reappear for
  status queries, unfinished jobs re-queue and settle as cache hits
  instead of duplicating completed points;
* cancelling a running job stops its dispatch, and the points already
  in flight still settle: into the result cache and onto the cancelled
  job;
* the daemon keeps no per-point state of finished jobs;
* connections are kept alive: a client uses one, responses on it do
  not stall, every response after which the daemon closes it says so,
  and an idle one is closed, with the client reconnecting before it
  sends.

Most tests stub the simulation (same pattern as
test_parallel_backend.py) so a 3-point job resolves in milliseconds;
the serial-equivalence acceptance test runs the real pipeline on a
small grep slice.
"""

import dataclasses
import hashlib
import http.client
import json
import os
import socket
import struct
import threading
import time
from urllib.parse import urlparse

import pytest

import repro.harness.sweep as sweep_module
from repro.chaos import ChaosEngine, FaultPlan, FaultRule, activate, deactivate
from repro.cli import main
from repro.harness.artifacts import default_artifact_root
from repro.harness.backend import PointTask, SerialBackend
from repro.harness.cache import ResultCache, result_key
from repro.harness.executor import ExecutionPolicy
from repro.harness.runner import SweepRunner
from repro.machine.errors import SimulationHang
from repro.machine.config import (
    GRIDS,
    BranchMode,
    Discipline,
    MachineConfig,
    grid_configs,
)
from repro.service import (
    AdmissionError,
    GridSpec,
    JobJournal,
    JobScheduler,
    ServiceClient,
    ServiceServer,
    SpecError,
    UnknownJobError,
)
from repro.service import http_api
from repro.service.client import AdmissionRejected, JobNotFound, ServiceError
from repro.service.http_api import MAX_BODY_BYTES
from repro.service.jobs import TERMINAL_STATES, points_digest
from repro.stats.results import SimResult
from repro.validate import run_oracle
from repro.telemetry import MetricsCollector, prometheus


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


@pytest.fixture
def stub_sim(monkeypatch):
    """Stub the simulation; returns a list recording every simulate call."""
    calls = []

    def stub(workload, config, collector=None, max_cycles=None, **kwargs):
        calls.append(config)
        return fake_result(config)

    monkeypatch.setattr(SweepRunner, "workload", lambda self, name: None)
    monkeypatch.setattr(SweepRunner, "prepare_artifacts",
                        lambda self, name: None)
    monkeypatch.setattr("repro.harness.runner.simulate", stub)
    return calls


def make_scheduler(tmp_path, monkeypatch, name="svc", **kwargs):
    """A scheduler over a tmp cache dir (not started)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
    runner = SweepRunner(benchmarks=["grep"], collector=MetricsCollector())
    kwargs.setdefault("journal_path", str(tmp_path / name / "journal.jsonl"))
    return JobScheduler(runner, **kwargs)


def run_job(scheduler, spec, timeout_s=60.0):
    """Submit ``spec`` and long-poll until the job settles."""
    job_id = scheduler.submit(spec)["job_id"]
    return wait_job(scheduler, job_id, timeout_s)


def wait_job(scheduler, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    after = 0
    while time.monotonic() < deadline:
        events, snap = scheduler.wait_events(job_id, after=after,
                                             timeout_s=0.5)
        if events:
            after = events[-1]["seq"]
        if snap["state"] in TERMINAL_STATES:
            return scheduler.job(job_id)
    raise AssertionError(f"job {job_id} never settled")


# ----------------------------------------------------------------------
class TestGridSpec:
    def test_defaults_to_every_workload(self):
        from repro.workloads import WORKLOADS

        spec = GridSpec.from_dict({})
        assert spec.benchmarks == tuple(sorted(WORKLOADS))
        assert spec.grid == "smoke"

    @pytest.mark.parametrize("raw, fragment", [
        ([], "JSON object"),
        ({"grid": "nope"}, "unknown grid"),
        ({"benchmarks": []}, "non-empty"),
        ({"benchmarks": ["no-such-bench"]}, "unknown benchmarks"),
        ({"scale": 0}, "positive integer"),
        ({"scale": "big"}, "positive integer"),
        ({"limit": -1}, "positive integer"),
        ({"surprise": 1}, "unknown spec fields"),
    ])
    def test_rejects_malformed_specs(self, raw, fragment):
        with pytest.raises(SpecError, match=fragment):
            GridSpec.from_dict(raw)

    def test_points_are_benchmark_major_and_limited(self):
        spec = GridSpec.from_dict(
            {"benchmarks": ["grep", "sort"], "limit": 41}
        )
        points = spec.points(scale=1)
        assert len(points) == 41
        assert [p.benchmark for p in points] == ["grep"] * 40 + ["sort"]
        assert len({p.key for p in points}) == 41

    def test_digest_is_deterministic_and_order_insensitive(self):
        def digest(spec, scale):
            return points_digest(spec.points(scale))

        ab = GridSpec.from_dict({"benchmarks": ["grep", "sort"]})
        ba = GridSpec.from_dict({"benchmarks": ["sort", "grep"]})
        assert digest(ab, 1) == digest(ba, 1)  # same point set
        assert digest(ab, 1) != digest(ab, 2)  # scale is part of identity
        assert digest(ab, 1) != digest(GridSpec.from_dict(
            {"benchmarks": ["grep"]}
        ), 1)

    def test_roundtrips_through_to_dict(self):
        spec = GridSpec.from_dict(
            {"benchmarks": ["grep"], "grid": "full", "scale": 2, "limit": 7}
        )
        assert GridSpec.from_dict(spec.to_dict()) == spec

    def test_every_task_is_labelled_with_its_config(self):
        from repro.workloads import WORKLOADS

        for grid in GRIDS:
            for task in sweep_module.grid_tasks(grid, sorted(WORKLOADS), 1):
                assert task.label == str(task.config), (grid, task.key)

    @pytest.mark.parametrize("raw", [
        {"benchmarks": ["sort", "grep"]},
        {"benchmarks": ["grep", "sort"], "limit": 41},
        {"benchmarks": ["jsontok", "crc32"], "grid": "cache", "limit": 30},
    ])
    def test_memoised_points_equal_a_fresh_expansion(self, raw):
        spec = GridSpec.from_dict(raw)
        fresh = [PointTask(name, config, result_key(name, config, 1))
                 for name in spec.benchmarks
                 for config in grid_configs(spec.grid, name)][:spec.limit]
        hasher = hashlib.sha256()
        for key in sorted(task.key for task in fresh):
            hasher.update(key.encode())
            hasher.update(b"\n")
        # The first call may fill the process's memo; the second reads it.
        for _ in range(2):
            assert spec.points(1) == fresh
            assert points_digest(spec.points(1)) == hasher.hexdigest()[:12]


# ----------------------------------------------------------------------
class TestJobJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.append({"event": "accept", "job_id": "a"})
        journal.append({"event": "state", "job_id": "a", "state": "done"})
        journal.close()
        records = JobJournal.replay(journal.path)
        assert [r["event"] for r in records] == ["accept", "state"]

    def test_replay_skips_truncated_and_foreign_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append({"event": "accept", "job_id": "a"})
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"event": "x", "v": 999}) + "\n")
            handle.write('{"event": "state", "job_id": "a", "sta')  # crash
        records = JobJournal.replay(str(path))
        assert len(records) == 1 and records[0]["job_id"] == "a"

    def test_replay_of_missing_file_is_empty(self, tmp_path):
        assert JobJournal.replay(str(tmp_path / "absent.jsonl")) == []

    def test_rewrite_compacts(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        for index in range(10):
            journal.append({"event": "state", "job_id": "a", "n": index})
        journal.rewrite([{"event": "accept", "job_id": "a"}])
        records = JobJournal.replay(journal.path)
        assert len(records) == 1 and records[0]["event"] == "accept"


# ----------------------------------------------------------------------
class TestAdmission:
    def test_queue_full_is_typed_429(self, tmp_path, monkeypatch, stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch,
                                   max_queued_jobs=1)
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 2})
        scheduler.submit(spec)  # not started: stays queued
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(spec)
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.http_status == 429
        assert excinfo.value.retry_after_s == 5.0
        assert scheduler.stats["jobs.rejected.queue-full"] == 1
        scheduler.stop(cancel_pending=True)

    def test_job_too_large_is_typed_429(self, tmp_path, monkeypatch,
                                        stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch, max_job_points=2)
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(GridSpec.from_dict(
                {"benchmarks": ["grep"], "limit": 3}
            ))
        assert excinfo.value.reason == "job-too-large"
        assert excinfo.value.http_status == 429
        scheduler.stop()

    def test_scale_mismatch_is_typed_400(self, tmp_path, monkeypatch,
                                         stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch)
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(GridSpec.from_dict(
                {"benchmarks": ["grep"],
                 "scale": scheduler.runner.scale + 1}
            ))
        assert excinfo.value.reason == "scale-mismatch"
        assert excinfo.value.http_status == 400
        scheduler.stop()

    def test_stopped_is_typed_503(self, tmp_path, monkeypatch, stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch)
        scheduler.stop()
        with pytest.raises(AdmissionError) as excinfo:
            scheduler.submit(GridSpec.from_dict({"benchmarks": ["grep"]}))
        assert excinfo.value.reason == "stopped"
        assert excinfo.value.http_status == 503


# ----------------------------------------------------------------------
class TestScheduler:
    def test_second_identical_job_is_all_cache_hits(self, tmp_path,
                                                    monkeypatch, stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch)
        scheduler.start()
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 3})
        first = run_job(scheduler, spec)
        second = run_job(scheduler, spec)
        scheduler.stop()

        assert first["points"] == {"total": 3, "resolved": 3, "cached": 0,
                                   "fresh": 3, "failed": 0}
        assert second["points"] == {"total": 3, "resolved": 3, "cached": 3,
                                    "fresh": 0, "failed": 0}
        assert len(stub_sim) == 3  # the second job re-simulated nothing
        # Per-job telemetry counter deltas say the same thing.
        assert first["counters"]["sweep.cache.miss"] == 3
        assert "sweep.cache.miss" not in second["counters"]
        assert second["counters"]["sweep.cache.hit"] == 3
        # Deterministic identity: same grid -> same digest prefix.
        assert first["job_id"].split("-")[0] == second["job_id"].split("-")[0]
        assert first["job_id"] != second["job_id"]

    def test_results_carry_point_records(self, tmp_path, monkeypatch,
                                         stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch)
        scheduler.start()
        run_job(scheduler, GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 1}
        ))
        job = run_job(scheduler, GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 3}
        ))
        events, _ = scheduler.wait_events(job["job_id"], timeout_s=0.1)
        scheduler.stop()
        assert [record["status"] for record in job["results"]] == [
            "cached", "fresh", "fresh"]
        for record in job["results"]:
            assert record["benchmark"] == "grep"
            assert record["ipc"] > 0 and record["cycles"] == 1000
        assert [list(record) for record in job["results"]] == [
            ["benchmark", "config", "status", "ipc", "cycles"]] * 3
        # The results are the job's point events, less the event fields.
        envelope = {"seq", "ts", "kind", "job_id", "resolved", "total"}
        assert job["results"] == [
            {name: value for name, value in event.items()
             if name not in envelope}
            for event in events if event["kind"] == "point"
        ]

    def test_cancel_queued_job_settles_immediately(self, tmp_path,
                                                   monkeypatch, stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch)  # not started
        job_id = scheduler.submit(GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 2}
        ))["job_id"]
        snapshot = scheduler.cancel(job_id)
        assert snapshot["state"] == "cancelled"
        assert scheduler.stats["jobs.cancelled"] == 1
        # Cancelling a terminal job is a no-op, not an error.
        assert scheduler.cancel(job_id)["state"] == "cancelled"
        with pytest.raises(UnknownJobError):
            scheduler.cancel("no-such-job")
        scheduler.stop()

    def test_grid_is_expanded_once_per_program(self, tmp_path, monkeypatch,
                                               stub_sim):
        real_grid_configs = sweep_module.grid_configs
        built = []

        def spy(grid, benchmark=None):
            built.append((grid, benchmark))
            return real_grid_configs(grid, benchmark)

        monkeypatch.setattr(sweep_module, "grid_configs", spy)
        sweep_module._program_tasks.cache_clear()
        scheduler = make_scheduler(tmp_path, monkeypatch)
        scheduler.start()
        spec = GridSpec.from_dict({"benchmarks": ["grep", "sort"],
                                   "limit": 42})
        first = run_job(scheduler, spec)
        # Admission, the digest and the run share one expansion.
        assert sorted(built) == [("smoke", "grep"), ("smoke", "sort")]
        second = run_job(scheduler, spec)
        scheduler.stop()
        assert len(built) == 2  # the resubmitted query built nothing
        assert first["points"]["total"] == second["points"]["total"] == 42
        digest = points_digest(spec.points(1))
        assert first["job_id"] == f"{digest}-0001"
        assert second["job_id"] == f"{digest}-0002"

    def test_warm_job_formats_no_config(self, tmp_path, monkeypatch,
                                        stub_sim):
        real_str = MachineConfig.__str__
        formatted = []

        def counting_str(config):
            formatted.append(config)
            return real_str(config)

        scheduler = make_scheduler(tmp_path, monkeypatch, validate=False)
        scheduler.start()
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 3})
        configs = [task.config for task in spec.points(1)]
        cold = run_job(scheduler, spec)
        monkeypatch.setattr(MachineConfig, "__str__", counting_str)
        warm = run_job(scheduler, spec)
        warm_formatted = list(formatted)
        scheduler.stop()
        assert cold["points"]["fresh"] == warm["points"]["cached"] == 3
        # A cache hit formats nothing: its point event's config string
        # is the task's label, formatted when the grid was expanded.
        assert warm_formatted == []
        assert [record["config"] for record in warm["results"]] == [
            real_str(config) for config in configs]

    def test_events_wake_only_the_polls_they_answer(self, tmp_path,
                                                    monkeypatch, stub_sim):
        def paced(workload, config, collector=None, max_cycles=None,
                  **kwargs):
            time.sleep(0.02)  # lets every sleeping poll re-wait per event
            return fake_result(config)

        monkeypatch.setattr("repro.harness.runner.simulate", paced)
        # Count each thread's entries into and wake-ups from a condition
        # wait: the long-polls' waits, whichever condition they sleep on.
        entered, wakes = set(), {}
        real_wait = threading.Condition.wait

        def counting_wait(cond, timeout=None):
            name = threading.current_thread().name
            entered.add(name)
            notified = real_wait(cond, timeout)
            wakes[name] = wakes.get(name, 0) + 1
            return notified

        monkeypatch.setattr(threading.Condition, "wait", counting_wait)
        scheduler = make_scheduler(tmp_path, monkeypatch)  # not started
        job_id = scheduler.submit(GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 3}
        ))["job_id"]
        past_end, streamed = [], []

        def poll_past_end():
            past_end.append(scheduler.wait_events(job_id, after=2**62,
                                                  timeout_s=30.0))

        def stream():
            after = 0
            while True:
                events, snap = scheduler.wait_events(job_id, after=after,
                                                     timeout_s=30.0)
                streamed.extend(events)
                if events:
                    after = events[-1]["seq"]
                if snap["state"] in TERMINAL_STATES:
                    return

        threads = [threading.Thread(target=poll_past_end, name="past-end"),
                   threading.Thread(target=stream, name="stream")]
        for thread in threads:
            thread.start()
            deadline = time.monotonic() + 30.0
            while thread.name not in entered:  # asleep in its long-poll
                assert time.monotonic() < deadline
                time.sleep(0.005)
        scheduler.start()
        for thread in threads:
            thread.join(30.0)
        scheduler.stop()
        assert not any(thread.is_alive() for thread in threads)

        [(events, snap)] = past_end
        assert events == [] and snap["state"] == "done"
        # It slept through job.running and the three point events and
        # woke at job.done; at most one spurious wake-up is tolerated.
        assert wakes["past-end"] <= 2, wakes
        assert [event["seq"] for event in streamed] == list(range(1, 7))
        assert [event["kind"] for event in streamed] == [
            "job.queued", "job.running", "point", "point", "point",
            "job.done"]

    def test_event_stream_is_ordered_and_truncation_safe(self, tmp_path,
                                                         monkeypatch,
                                                         stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch)
        scheduler.start()
        job_id = scheduler.submit(GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 2}
        ))["job_id"]
        wait_job(scheduler, job_id)
        events, _ = scheduler.wait_events(job_id, after=0, timeout_s=0.1)
        scheduler.stop()
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "job.queued"
        assert kinds[1] == "job.running"
        assert kinds.count("point") == 2
        assert kinds[-1] == "job.done"
        # ``seq`` is the 1-based index, so a re-poll with ``after``
        # starts where the last one left off, and a negative ``after``
        # reads the whole stream.
        assert [event["seq"] for event in events] == list(
            range(1, len(events) + 1))
        for after in (-3, 0, 2, len(events), len(events) + 4):
            tail, _ = scheduler.wait_events(job_id, after=after,
                                            timeout_s=0.1)
            assert tail == [event for event in events
                            if event["seq"] > after], after


# ----------------------------------------------------------------------
class TestRestartReplay:
    def test_done_jobs_reappear_and_queued_jobs_resume_cached(
            self, tmp_path, monkeypatch, stub_sim):
        journal = str(tmp_path / "svc" / "journal.jsonl")
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 3})

        first = make_scheduler(tmp_path, monkeypatch, journal_path=journal)
        first.start()
        done = run_job(first, spec)
        first.stop()
        assert len(stub_sim) == 3

        # Second daemon incarnation: accept a job, "crash" before
        # running it (never started; stop without cancelling).
        second = make_scheduler(tmp_path, monkeypatch, journal_path=journal)
        assert second.job(done["job_id"])["state"] == "done"
        pending_id = second.submit(spec)["job_id"]
        second.stop(cancel_pending=False)

        # Third incarnation replays the journal: the finished job is
        # visible with its counts, the pending one re-queues and
        # settles from the cache without re-simulating anything.
        third = make_scheduler(tmp_path, monkeypatch, journal_path=journal)
        restored = third.job(done["job_id"])
        assert restored["state"] == "done"
        assert restored["points"]["fresh"] == 3
        assert third.job(pending_id)["state"] == "queued"
        third.start()
        resumed = wait_job(third, pending_id)
        assert resumed["points"]["cached"] == 3
        assert resumed["points"]["fresh"] == 0
        assert len(stub_sim) == 3  # no duplicated work across restarts

        # Acceptance sequence numbers survive, so new ids stay unique.
        new_id = third.submit(spec)["job_id"]
        assert new_id.endswith("-0003")
        wait_job(third, new_id)
        third.stop()

    def test_recovery_compacts_the_journal(self, tmp_path, monkeypatch,
                                           stub_sim):
        journal = str(tmp_path / "svc" / "journal.jsonl")
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 2})
        first = make_scheduler(tmp_path, monkeypatch, journal_path=journal)
        first.start()
        run_job(first, spec)
        first.stop()
        raw = JobJournal.replay(journal)
        # accept + running + done for one job.
        assert [r["event"] for r in raw] == ["accept", "state", "state"]

        second = make_scheduler(tmp_path, monkeypatch, journal_path=journal)
        second.stop()
        compacted = JobJournal.replay(journal)
        # The intermediate ``running`` line is compacted away.
        assert [r["event"] for r in compacted] == ["accept", "state"]
        assert compacted[1]["state"] == "done"

    def test_failed_compaction_keeps_the_journal(self, tmp_path,
                                                 monkeypatch, stub_sim):
        # The journal sits alone in its directory, so debris would show.
        journal_dir = tmp_path / "journal"
        journal = journal_dir / "journal.jsonl"
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 2})
        first = make_scheduler(tmp_path, monkeypatch,
                               journal_path=str(journal))
        first.start()
        done = run_job(first, spec)
        first.stop()
        before = journal.read_bytes()
        records = JobJournal.replay(str(journal))
        assert len(records) == 3

        real_dumps = json.dumps
        encoded = []

        def dumps_failing_on_second_record(obj, *args, **kwargs):
            encoded.append(obj)
            if len(encoded) == 2:
                raise OSError(28, "No space left on device")
            return real_dumps(obj, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(json, "dumps", dumps_failing_on_second_record)
            with pytest.raises(OSError):
                JobJournal(str(journal)).rewrite(records)
        assert os.listdir(journal_dir) == ["journal.jsonl"]
        assert journal.read_bytes() == before

        # A restart whose compaction fails still comes up: the
        # uncompacted journal stays and replays to the same jobs.
        def failing_rewrite(self, records):
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(JobJournal, "rewrite", failing_rewrite)
            second = make_scheduler(tmp_path, monkeypatch,
                                    journal_path=str(journal))
        restored = second.job(done["job_id"])
        assert restored["state"] == "done"
        assert restored["points"]["fresh"] == 2
        second.stop()
        assert journal.read_bytes() == before


class TestDaemonHoldsNoHistory:
    """A long-lived daemon must not keep per-point state of past jobs."""

    def test_failed_jobs_leave_the_runners_failures_bounded(
            self, tmp_path, monkeypatch, stub_sim):
        def hang(workload, config, collector=None, max_cycles=None,
                 **kwargs):
            raise SimulationHang("grep", str(config), 101, 100)

        monkeypatch.setattr("repro.harness.runner.simulate", hang)
        scheduler = make_scheduler(tmp_path, monkeypatch)
        scheduler.start()
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 3})
        for _ in range(5):
            job = run_job(scheduler, spec)
            assert job["state"] == "failed"
            assert job["points"]["failed"] == 3
        scheduler.stop()

    def test_timed_out_point_leaves_no_late_writes(self, tmp_path,
                                                   monkeypatch, stub_sim):
        attempts = []

        def sleeps_past_timeout(workload, config, collector=None,
                                max_cycles=None, **kwargs):
            attempts.append(threading.current_thread())
            time.sleep(0.5)
            collector.count("stub.late")
            collector.observe("stub.late_s", 0.5)
            return fake_result(config)

        monkeypatch.setattr("repro.harness.runner.simulate",
                            sleeps_past_timeout)
        scheduler = make_scheduler(
            tmp_path, monkeypatch,
            policy=ExecutionPolicy(timeout_s=0.05, retries=0))
        scheduler.start()
        job = run_job(scheduler, GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 1}
        ))
        [attempt] = attempts
        attempt.join(10.0)  # the abandoned attempt has finished writing
        assert not attempt.is_alive()
        scheduler.stop()

        assert job["state"] == "failed"
        assert [record["error"] for record in job["results"]] == ["timeout"]
        collector = scheduler.runner.collector
        assert collector.counters["sweep.point.timeout"] == 1
        # Neither the stub's writes nor simulate_point's own reached
        # the daemon's collector.
        assert not {"stub.late", "sweep.cache.miss"} & set(
            collector.counters)
        assert not {"stub.late_s", "sweep.point.wall_s"} & set(
            collector.histograms)

    @pytest.mark.parametrize("validate", [False, True])
    def test_finished_jobs_hold_no_results(self, tmp_path, monkeypatch,
                                           stub_sim, validate):
        scheduler = make_scheduler(tmp_path, monkeypatch, validate=validate)
        scheduler.start()
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 4})
        jobs = [run_job(scheduler, spec) for _ in range(3)]
        scheduler.stop()
        assert [job["state"] for job in jobs] == ["done"] * 3
        assert [job["points"]["cached"] for job in jobs] == [0, 4, 4]
        if validate:
            # Each job's oracle reads all four of its results.
            expected = run_oracle(
                [fake_result(task.config) for task in spec.points(1)],
                scale=1).to_dict()
            assert expected["checked_results"] == 4
            assert all(job["validation"] == expected for job in jobs)
        else:
            assert all("validation" not in job for job in jobs)


    def test_warm_jobs_are_equal_and_leave_cached_results_untouched(
            self, tmp_path, monkeypatch, stub_sim):
        scheduler = make_scheduler(tmp_path, monkeypatch, validate=True)
        scheduler.start()
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 12})
        tasks = spec.points(1)
        cache = scheduler.runner.cache
        run_job(scheduler, spec)  # cold: fills the cache
        first = run_job(scheduler, spec)
        # Every warm hit from here on is the same decoded result.
        cached = [cache.get(task.benchmark, task.config, 1, task.key)
                  for task in tasks]
        before = [dataclasses.asdict(result) for result in cached]
        second = run_job(scheduler, spec)
        report = run_oracle(cached, scale=1)
        report.to_dict()
        report.summary_lines()
        scheduler.stop()
        assert first["points"]["cached"] == 12
        for name in ("results", "points", "counters", "validation"):
            assert first[name] == second[name], name
        assert second["validation"] == report.to_dict()
        assert [dataclasses.asdict(result) for result in cached] == before
        assert all(cache.get(task.benchmark, task.config, 1, task.key)
                   is result for task, result in zip(tasks, cached))


# ----------------------------------------------------------------------
class GatedBackend:
    """Wraps a SerialBackend: buffers dispatches, executes on finish().

    ``submit`` blocks (on ``gate``) once ``hold_after`` tasks are in,
    letting a test cancel the owning job while points are provably
    still in flight.
    """

    name = "gated"

    def __init__(self, runner, hold_after=2):
        self.inner = SerialBackend(runner)
        self.pending = []
        self.dispatched = []
        self.gate = threading.Event()
        self.hold_after = hold_after

    def submit(self, task):
        self.dispatched.append(task.key)
        self.pending.append(task)
        if len(self.dispatched) == self.hold_after:
            self.gate.wait(timeout=30.0)
        return iter(())

    def finish(self):
        pending, self.pending = self.pending, []
        for task in pending:
            for outcome in self.inner.submit(task):
                yield outcome

    def close(self):
        self.inner.close()


class TestCancellation:
    def test_cancelled_job_settles_its_inflight_points(
            self, tmp_path, monkeypatch, stub_sim):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "svc"))
        runner = SweepRunner(benchmarks=["grep"],
                             collector=MetricsCollector())
        backend = GatedBackend(runner, hold_after=2)
        scheduler = JobScheduler(
            runner, backend=backend,
            journal_path=str(tmp_path / "svc" / "journal.jsonl"),
        )
        scheduler.start()
        spec = GridSpec.from_dict({"benchmarks": ["grep"], "limit": 3})
        job_id = scheduler.submit(spec)["job_id"]
        # Wait until two points are dispatched (the scheduler thread is
        # now parked inside the gate with both in flight).
        deadline = time.monotonic() + 30.0
        while len(backend.dispatched) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        scheduler.cancel(job_id)
        backend.gate.set()
        job = wait_job(scheduler, job_id)

        # Cancelling stopped dispatch before the third point; the two in
        # flight settled onto the cancelled job and into the cache.
        assert job["state"] == "cancelled"
        assert job["points"] == {"total": 3, "resolved": 2, "cached": 0,
                                 "fresh": 2, "failed": 0}
        assert len(backend.dispatched) == 2
        assert len(stub_sim) == 2
        cache = ResultCache()
        for task in spec.points(runner.scale)[:2]:
            assert cache.get(task.benchmark, task.config,
                             runner.scale) is not None

        later = run_job(scheduler, GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 2}
        ))
        scheduler.stop()
        assert later["state"] == "done"
        assert later["points"]["cached"] == 2
        assert len(stub_sim) == 2


# ----------------------------------------------------------------------
class CountingServer(ServiceServer):
    """The daemon's HTTP server, counting the connections it accepts."""

    accepted = 0
    #: connections whose handler thread has finished with them.
    finished = 0

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.finished += 1

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


@pytest.fixture
def http_server(tmp_path, monkeypatch, stub_sim):
    """A scheduler + counting HTTP server over a tmp cache dir."""
    scheduler = make_scheduler(tmp_path, monkeypatch, name="http")
    scheduler.start()
    server = CountingServer(("127.0.0.1", 0), scheduler, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield scheduler, server
    finally:
        server.shutdown()
        server.server_close()
        scheduler.stop()
        thread.join(5.0)


@pytest.fixture
def http_service(http_server):
    """The same plus a client, closed before the server stops (a kept-
    alive connection would hold ``server_close`` for the idle timeout)."""
    scheduler, server = http_server
    with ServiceClient(server.url, timeout_s=30.0) as client:
        yield scheduler, client


class TestHTTPAPI:
    def test_submit_wait_and_cache_hits_over_http(self, http_service):
        scheduler, client = http_service
        assert client.health()["ok"] is True

        spec = {"benchmarks": ["grep"], "limit": 2}
        accepted = client.submit(spec)
        assert accepted["state"] in ("queued", "running", "done")
        seen = []
        final = client.wait(accepted["job_id"], poll_timeout_s=1.0,
                            deadline_s=60.0, on_event=seen.append)
        assert final["state"] == "done"
        assert final["points"]["fresh"] == 2
        kinds = [event["kind"] for event in seen]
        assert kinds[0] == "job.queued" and kinds[-1] == "job.done"

        warm = client.wait(client.submit(spec)["job_id"],
                           poll_timeout_s=1.0, deadline_s=60.0)
        assert warm["points"]["cached"] == 2

        listed = {job["job_id"] for job in client.jobs()}
        assert {accepted["job_id"], warm["job_id"]} <= listed
        metrics = prometheus.parse_exposition(client.metrics_text())
        for name, value in (("service.jobs.accepted", 2),
                            ("sweep.cache.hit", 2)):
            metric = prometheus.sanitize(name)
            assert metrics[metric]["samples"][metric] == value

    def test_unknown_job_is_404(self, http_service):
        _, client = http_service
        with pytest.raises(JobNotFound):
            client.job("no-such-job")
        with pytest.raises(JobNotFound):
            client.cancel("no-such-job")

    def test_malformed_spec_is_400(self, http_service):
        _, client = http_service
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit({"grid": "nope"})
        with pytest.raises(ServiceError, match="HTTP 400"):
            client.submit({"surprise": 1})

    @pytest.mark.parametrize("length", ["-1", "abc",
                                        str(MAX_BODY_BYTES + 1)])
    def test_bad_content_length_is_400_and_accepts_nothing(
            self, http_service, length):
        scheduler, client = http_service
        address = urlparse(client.base_url)
        # The body is refused unread, so the daemon must close the
        # connection rather than parse the body as a next request.
        smuggled = f"GET /healthz HTTP/1.1\r\nHost: {address.netloc}\r\n\r\n"
        body = smuggled if length.isdigit() else ""
        request = ("POST /jobs HTTP/1.1\r\n"
                   f"Host: {address.netloc}\r\n"
                   f"Content-Length: {length}\r\n\r\n{body}").encode()
        with socket.create_connection((address.hostname, address.port),
                                      timeout=5.0) as conn:
            conn.sendall(request)
            response = b""
            try:
                while True:  # until the daemon closes the connection
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            except ConnectionResetError:
                pass  # closed with the unread body still queued
        assert response.startswith(b"HTTP/1.1 400 "), response
        assert response.count(b"HTTP/1.1 ") == 1, response
        # The close is announced, so a kept-alive client reconnects.
        headers = response.split(b"\r\n\r\n", 1)[0].split(b"\r\n")
        assert b"Connection: close" in headers, response
        assert client.jobs() == []
        assert scheduler.stats["jobs.accepted"] == 0

    @staticmethod
    def post_headers_only(address, headers):
        """Send ``POST /jobs`` headers, shut the write side, and return
        everything the daemon answers before it closes."""
        with socket.create_connection((address.hostname, address.port),
                                      timeout=5.0) as conn:
            conn.sendall((f"POST /jobs HTTP/1.1\r\nHost: {address.netloc}"
                          f"\r\n{headers}\r\n").encode())
            conn.shutdown(socket.SHUT_WR)
            response = b""
            while True:  # until the daemon closes the connection
                chunk = conn.recv(4096)
                if not chunk:
                    return response
                response += chunk

    @pytest.mark.parametrize("expect", ["", "Expect: 100-continue\r\n"])
    def test_body_that_never_arrives_is_400_and_accepts_nothing(
            self, http_service, expect):
        scheduler, client = http_service
        response = self.post_headers_only(
            urlparse(client.base_url),
            f"Content-Length: 40\r\n{expect}")
        if expect:
            assert response.startswith(b"HTTP/1.1 100 "), response
            response = response.split(b"\r\n\r\n", 1)[1]
        assert response.startswith(b"HTTP/1.1 400 "), response
        assert b"ended after 0 of 40 bytes" in response
        assert response.count(b"HTTP/1.1 ") == 1, response
        assert client.jobs() == []
        assert scheduler.stats["jobs.accepted"] == 0

    def test_post_without_content_length_is_the_empty_spec(
            self, http_service):
        from repro.workloads import WORKLOADS

        scheduler, client = http_service
        response = self.post_headers_only(urlparse(client.base_url), "")
        assert response.startswith(b"HTTP/1.1 202 "), response
        [job] = scheduler.jobs()
        # Every workload's smoke grid, as ``GridSpec.from_dict({})``.
        assert job["points"]["total"] == 40 * len(WORKLOADS)
        assert wait_job(scheduler, job["job_id"])["state"] == "done"

    def test_queue_full_surfaces_as_typed_rejection(self, http_service):
        scheduler, client = http_service
        scheduler.max_queued_jobs = 0
        try:
            with pytest.raises(AdmissionRejected) as excinfo:
                client.submit({"benchmarks": ["grep"], "limit": 1})
        finally:
            scheduler.max_queued_jobs = 8
        assert excinfo.value.reason == "queue-full"
        assert excinfo.value.retry_after_s == 5.0


# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_kept_alive_responses_do_not_stall(self, http_server):
        # Without TCP_NODELAY each response's body, written after its
        # headers, waited for the client's delayed ACK (~40 ms).
        _, server = http_server
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert server.accepted == 1
        assert elapsed < 0.4, elapsed

    def test_client_uses_one_connection(self, http_server):
        _, server = http_server
        with ServiceClient(server.url) as client:
            job_id = client.submit({"benchmarks": ["grep"],
                                    "limit": 2})["job_id"]
            final = client.wait(job_id, poll_timeout_s=1.0, deadline_s=60.0)
            assert client.job(job_id)["points"] == final["points"]
            assert client.health()["ok"] is True
        assert server.accepted == 1

    def test_idle_connection_closes_and_client_reconnects(
            self, http_server, monkeypatch):
        scheduler, server = http_server
        monkeypatch.setattr(http_api, "IDLE_TIMEOUT_S", 0.3)
        host, port = server.server_address[:2]
        # The daemon closes a kept-alive connection left idle ...
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            assert conn.sock.recv(1) == b""  # end of stream, not timeout
        finally:
            conn.close()
        # ... and a client idle past it reconnects before sending, so
        # its next request is answered without a retry.
        with ServiceClient(server.url, retries=0) as client:
            assert client.health()["ok"] is True
            time.sleep(0.5)
            client.submit({"benchmarks": ["grep"], "limit": 1})
        assert scheduler.stats["jobs.accepted"] == 1
        assert server.accepted == 3

    def test_injected_503_announces_close(self, http_server):
        _, server = http_server
        host, port = server.server_address[:2]
        activate(ChaosEngine(FaultPlan(seed=1, rules=(
            FaultRule("http.request", "http-503", hits=(1,)),
        ), name="503")))
        try:
            conn = http.client.HTTPConnection(host, port, timeout=5.0)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
        finally:
            deactivate()
        assert response.status == 503
        assert response.getheader("Connection") == "close"
        # http.client drops a connection announced closed; the next
        # request opens a new one.
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        conn.close()
        assert response.status == 200
        assert server.accepted == 2


    def test_a_response_leaves_in_one_write(self, http_server, monkeypatch):
        scheduler, server = http_server
        host, port = server.server_address[:2]
        writes = []
        for name in ("send", "sendall"):
            real = getattr(socket.socket, name)

            def counting(sock, data, *args, _real=real):
                if sock.getsockname()[1] == port:  # the daemon's side
                    writes.append(bytes(data))
                return _real(sock, data, *args)

            monkeypatch.setattr(socket.socket, name, counting)
        job_id = run_job(scheduler, GridSpec.from_dict(
            {"benchmarks": ["grep"], "limit": 40}))["job_id"]
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            for path in ("/healthz", "/metrics", f"/jobs/{job_id}",
                         "/jobs/no-such-job"):
                writes.clear()
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                assert len(writes) == 1, (path, len(writes))
                assert writes[0].startswith(b"HTTP/1.1 ")
                assert writes[0].endswith(b"\r\n\r\n" + body)
        finally:
            conn.close()

    def test_interim_100_continue_leaves_at_once(self, http_server):
        scheduler, server = http_server
        host, port = server.server_address[:2]
        body = json.dumps({"benchmarks": ["grep"], "limit": 1}).encode()
        with socket.create_connection((host, port), timeout=5.0) as conn:
            conn.sendall((f"POST /jobs HTTP/1.1\r\nHost: {host}\r\n"
                          f"Content-Length: {len(body)}\r\n"
                          "Expect: 100-continue\r\n\r\n").encode())
            # The body is held back until the daemon says to send it.
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = conn.recv(4096)
                assert chunk, interim
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100 "), interim
            conn.sendall(body)
            response = conn.recv(4096)
        assert response.startswith(b"HTTP/1.1 202 "), response
        [job] = scheduler.jobs()
        assert wait_job(scheduler, job["job_id"])["state"] == "done"

    @staticmethod
    def reset_after_request(server, count=3):
        """``count`` clients send a request and close with an RST."""
        host, port = server.server_address[:2]
        for _ in range(count):
            with socket.create_connection((host, port), timeout=5.0) as conn:
                conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
        deadline = time.monotonic() + 10.0
        while server.finished < count:
            assert time.monotonic() < deadline
            time.sleep(0.01)

    @pytest.mark.parametrize("quiet", [True, False])
    def test_client_resets_log_no_traceback(self, http_server, capfd,
                                            quiet):
        _, server = http_server
        server.quiet = quiet
        self.reset_after_request(server)
        err = capfd.readouterr().err
        assert "Traceback" not in err and "Exception" not in err, err
        gone = [line for line in err.splitlines() if "client_gone" in line]
        # One structured line per reset, unless the daemon is quiet.
        assert len(gone) == (0 if quiet else 3), err
        assert all(line.startswith("http: client_gone ") for line in gone)

    def test_other_handler_errors_keep_their_traceback(self, http_server,
                                                       capfd, monkeypatch):
        scheduler, server = http_server

        def broken():
            raise RuntimeError("health check broke")

        monkeypatch.setattr(scheduler, "health", broken)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5.0)
        try:
            conn.request("GET", "/healthz")
            with pytest.raises(http.client.RemoteDisconnected):
                conn.getresponse()
        finally:
            conn.close()
        deadline = time.monotonic() + 10.0
        while server.finished < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        err = capfd.readouterr().err
        assert "Traceback" in err and "health check broke" in err, err


# ----------------------------------------------------------------------
class TestServiceBatchEquivalence:
    """Acceptance: service results == serial batch sweep, byte for byte."""

    def test_service_cache_matches_serial_sweep(self, tmp_path, monkeypatch,
                                                grep_prepared, capsys):
        monkeypatch.setenv(
            "REPRO_ARTIFACT_DIR", os.path.abspath(default_artifact_root())
        )
        # Count workload preparations: the warm daemon must do none.
        import repro.harness.runner as runner_module

        real_prepared = runner_module.prepared
        prepare_calls = []

        def counting_prepared(workload, scale=1):
            prepare_calls.append(workload.name)
            return real_prepared(workload, scale)

        monkeypatch.setattr(runner_module, "prepared", counting_prepared)

        service_dir = tmp_path / "service"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(service_dir))
        runner = SweepRunner(benchmarks=["grep"],
                             collector=MetricsCollector())
        scheduler = JobScheduler(
            runner, journal_path=str(service_dir / "journal.jsonl")
        )
        scheduler.start()
        # ``sweep`` walks the full grid, so the service job must too for
        # the caches to be comparable.
        spec = GridSpec.from_dict(
            {"benchmarks": ["grep"], "grid": "full", "limit": 4}
        )
        cold = run_job(scheduler, spec)
        prepares_after_cold = len(prepare_calls)
        warm = run_job(scheduler, spec)
        scheduler.stop()

        assert cold["points"]["fresh"] == 4
        assert warm["points"]["cached"] == 4
        # Zero re-prepares and zero re-simulations on the warm submit.
        assert len(prepare_calls) == prepares_after_cold
        assert "sweep.cache.miss" not in warm["counters"]
        assert warm["counters"]["sweep.cache.hit"] == 4

        batch_dir = tmp_path / "batch"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(batch_dir))
        assert main(["sweep", "--benchmarks", "grep", "--limit", "4"]) == 0
        capsys.readouterr()

        service_cache = json.loads(
            (service_dir / "results.json").read_text()
        )
        batch_cache = json.loads((batch_dir / "results.json").read_text())
        assert len(service_cache) == 4
        assert json.dumps(service_cache, sort_keys=True) == json.dumps(
            batch_cache, sort_keys=True
        )
