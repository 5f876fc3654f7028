"""Validation-oracle tests: invariants, dominance, baselines, CLI gating.

The contracts under test (see DESIGN.md "Validation & regression
gating"):

* layer one (``invariants``) flags structurally impossible results and
  nothing else -- a clean synthetic result produces zero findings;
* layer two (``dominance``) orders the grid: a strictly more capable
  machine that loses produces one typed ``error`` finding per violated
  adjacent pair, partial grids compare as far as their coverage goes;
* layer three (``baseline``) gates drift against a committed golden
  snapshot, failing loudly on stale ``CACHE_VERSION`` instead of
  silently comparing nothing;
* every ``sweep`` wires all three behind exit code 4, and serial and
  ``--jobs N`` sweeps of one grid report byte-identical findings.
"""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.harness.cache import CACHE_VERSION
from repro.harness.runner import SweepRunner
from repro.machine.config import (
    BranchMode,
    Discipline,
    MachineConfig,
    smoke_configuration_space,
)
from repro.machine.errors import SimulationHang
from repro.stats.results import SimResult
from repro.validate import (
    DEFAULT_REL_TOL,
    ValidationFinding,
    check_baseline,
    check_dominance,
    check_result,
    count_by_severity,
    default_baseline_path,
    has_errors,
    record_baseline,
    run_oracle,
    sort_findings,
)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit monkeypatched module state",
)


def config(discipline=Discipline.DYNAMIC, issue=8, memory="A",
           mode=BranchMode.SINGLE, window=4):
    return MachineConfig(
        discipline=discipline,
        issue_model=issue,
        memory=memory,
        branch_mode=mode,
        window_blocks=window,
    )


def clean_result(cfg=None, benchmark="grep", cycles=1000, retired=4000,
                 **overrides):
    """A SimResult satisfying every structural invariant."""
    cfg = cfg or config()
    fields = dict(
        benchmark=benchmark,
        config=cfg,
        cycles=cycles,
        retired_nodes=retired,
        discarded_nodes=0,
        dynamic_blocks=100,
        mispredicts=0,
        branch_lookups=200,
        faults=0,
        cache_accesses=0,
        cache_misses=0,
        issue_words=1000,
        issued_slots=1000,
        window_block_cycles=(
            100 if cfg.discipline is Discipline.DYNAMIC else 0
        ),
        window_samples=(
            100 if cfg.discipline is Discipline.DYNAMIC else 0
        ),
        work_nodes=retired,
    )
    fields.update(overrides)
    return SimResult(**fields)


def rules(findings):
    return sorted(finding.rule for finding in findings)


# ----------------------------------------------------------------------
class TestFindings:
    def finding(self, **overrides):
        fields = dict(rule="invariant.cache", severity="error",
                      benchmark="grep", config="dyn4/single/8/A",
                      message="m")
        fields.update(overrides)
        return ValidationFinding(**fields)

    def test_to_dict_drops_empty_extra(self):
        # A finding has no ``extra`` any more: its dict is the eight fields.
        finding = self.finding(measured=2.0, expected=1.0,
                               reference="dyn1/single/8/A")
        assert finding.to_dict() == {
            "rule": "invariant.cache", "severity": "error",
            "benchmark": "grep", "config": "dyn4/single/8/A",
            "message": "m", "reference": "dyn1/single/8/A",
            "measured": 2.0, "expected": 1.0,
        }
        with pytest.raises(TypeError):
            self.finding(extra={"k": 1})

    def test_dict_roundtrip(self):
        original = self.finding(measured=2.0, expected=1.0,
                                reference="dyn1/single/8/A")
        assert ValidationFinding(**original.to_dict()) == original

    def test_sort_orders_severity_first(self):
        warning = self.finding(rule="baseline.uncovered",
                               severity="warning")
        error = self.finding(rule="invariant.work")
        assert sort_findings([warning, error]) == [error, warning]

    def test_severity_counts_and_gating(self):
        findings = [self.finding(), self.finding(severity="warning")]
        counts = count_by_severity(findings)
        assert counts["error"] == 1
        assert counts["warning"] == 1
        assert has_errors(findings)
        assert not has_errors([self.finding(severity="warning")])

    def test_summary_names_both_points_when_pairwise(self):
        line = self.finding(reference="dyn1/single/8/A").summary()
        assert "dyn4/single/8/A vs dyn1/single/8/A" in line


# ----------------------------------------------------------------------
class TestInvariants:
    def test_clean_result_has_no_findings(self):
        assert check_result(clean_result()) == []
        static = config(discipline=Discipline.STATIC, window=1)
        assert check_result(clean_result(static)) == []

    def test_negative_counter(self):
        findings = check_result(clean_result(mispredicts=-1))
        assert "invariant.counts" in rules(findings)

    def test_cache_misses_exceed_accesses(self):
        cfg = config(memory="D")
        findings = check_result(
            clean_result(cfg, cache_accesses=5, cache_misses=10)
        )
        assert rules(findings) == ["invariant.cache"]

    def test_perfect_memory_must_not_touch_a_cache(self):
        findings = check_result(clean_result(cache_accesses=7))
        assert rules(findings) == ["invariant.cache"]
        # The same counters are legal on a real cache hierarchy.
        assert check_result(
            clean_result(config(memory="D"), cache_accesses=7)
        ) == []

    def test_issue_utilization_bounded_by_bandwidth(self):
        width = config().issue.total_slots
        findings = check_result(
            clean_result(issue_words=10, issued_slots=10 * width + 1)
        )
        assert rules(findings) == ["invariant.issue"]

    def test_window_occupancy_bounded_by_window(self):
        findings = check_result(clean_result(
            config(window=4),
            window_samples=10, window_block_cycles=41,
        ))
        assert rules(findings) == ["invariant.window"]

    def test_static_machine_has_no_window(self):
        cfg = config(discipline=Discipline.STATIC, window=1)
        findings = check_result(clean_result(
            cfg, window_samples=5, window_block_cycles=5,
        ))
        assert rules(findings) == ["invariant.window"]

    def test_discards_need_a_mispredict_or_fault(self):
        findings = check_result(clean_result(discarded_nodes=50))
        assert rules(findings) == ["invariant.redundancy"]
        # Attributed discards are fine.
        assert check_result(
            clean_result(discarded_nodes=50, mispredicts=1)
        ) == []

    def test_single_block_program_cannot_fault(self):
        findings = check_result(clean_result(faults=3))
        assert "invariant.redundancy" in rules(findings)

    def test_perfect_prediction_cannot_mispredict(self):
        cfg = config(mode=BranchMode.PERFECT)
        findings = check_result(clean_result(cfg, mispredicts=2))
        assert rules(findings) == ["invariant.branch"]

    def test_mispredicts_bounded_by_lookups(self):
        findings = check_result(
            clean_result(branch_lookups=5, mispredicts=6)
        )
        assert rules(findings) == ["invariant.branch"]

    def test_retired_work_agreement(self):
        # Explicit trace count wins and pins any branch mode.
        cfg = config(mode=BranchMode.ENLARGED)
        result = clean_result(cfg, retired=4000)
        assert check_result(result, trace_retired=4000) == []
        findings = check_result(result, trace_retired=3999)
        assert rules(findings) == ["invariant.work"]
        # Without a trace, single-block results pin against work_nodes.
        findings = check_result(clean_result(work_nodes=4001))
        assert rules(findings) == ["invariant.work"]

    def test_every_finding_is_gating(self):
        findings = check_result(clean_result(
            discarded_nodes=50, cache_accesses=7, mispredicts=-1,
        ))
        assert findings and all(f.severity == "error" for f in findings)


# ----------------------------------------------------------------------
def graded_result(cfg, benchmark="grep"):
    """Synthetic result whose IPC grows with machine capability.

    Strictly monotone along every dominance axis: window size, issue
    model index, branch handling (perfect > realistic) and perfect-memory
    speed (A > B > C) -- so a grid built from it is dominance-clean.
    """
    window = (
        cfg.window_blocks if cfg.discipline is Discipline.DYNAMIC else 0
    )
    mode_rank = {"single": 0, "enlarged": 1, "perfect": 2}[
        cfg.branch_mode.value
    ]
    memory_rank = {"C": 0, "B": 1, "A": 2}.get(cfg.memory, 0)
    retired = (
        4000 + window + 100 * mode_rank + 10 * cfg.issue_model
        + 30 * memory_rank
    )
    return clean_result(cfg, benchmark=benchmark, cycles=1000,
                        retired=retired,
                        mispredicts=0 if mode_rank == 2 else 10,
                        branch_lookups=200)


def grid(points):
    """Results over explicit (discipline, issue, memory, mode, window)."""
    return [graded_result(config(*point)) for point in points]


class TestDominance:
    def smoke_grid(self):
        return [graded_result(cfg) for cfg in smoke_configuration_space()]

    def test_monotone_grid_is_clean(self):
        assert check_dominance(self.smoke_grid()) == []
        assert check_dominance(self.smoke_grid(), rel_tol=0.0) == []

    def slowed(self, predicate, factor=0.5):
        results = []
        for cfg in smoke_configuration_space():
            result = graded_result(cfg)
            if predicate(cfg):
                result.retired_nodes = int(result.retired_nodes * factor)
                result.work_nodes = result.retired_nodes
            results.append(result)
        return results

    def test_window_inversion_is_flagged(self):
        results = self.slowed(
            lambda cfg: cfg.discipline is Discipline.DYNAMIC
            and cfg.window_blocks == 256
        )
        findings = check_dominance(results)
        assert findings
        assert set(rules(findings)) == {"dominance.window"}
        finding = findings[0]
        assert finding.severity == "error"
        assert "dyn256" in finding.config
        assert "dyn4" in finding.reference
        assert finding.measured < finding.expected

    def test_issue_inversion_is_flagged(self):
        results = self.slowed(lambda cfg: cfg.issue_model == 8)
        findings = check_dominance(results)
        assert "dominance.issue" in set(rules(findings))

    def test_memory_inversion_is_flagged(self):
        results = self.slowed(lambda cfg: cfg.memory == "A")
        findings = check_dominance(results)
        assert "dominance.memory" in set(rules(findings))

    def test_branch_inversion_is_flagged(self):
        results = self.slowed(
            lambda cfg: cfg.branch_mode is BranchMode.PERFECT
        )
        findings = check_dominance(results)
        assert set(rules(findings)) == {"dominance.branch"}

    def test_rel_tol_forgives_small_losses(self):
        # Factor 0.93 inverts dyn256 vs dyn4 by ~1.2-1.6% across the
        # smoke grid: a real loss, but inside the 2% default tolerance.
        results = self.slowed(
            lambda cfg: cfg.discipline is Discipline.DYNAMIC
            and cfg.window_blocks == 256,
            factor=0.93,
        )
        assert check_dominance(results, rel_tol=DEFAULT_REL_TOL) == []
        assert check_dominance(results, rel_tol=0.0) != []

    def test_partial_grid_compares_adjacent_present_pairs(self):
        # dyn1 and dyn256 only: with dyn4 absent they become adjacent,
        # so an inverted dyn256 is still caught.
        points = [
            (Discipline.DYNAMIC, 8, "A", BranchMode.SINGLE, 1),
            (Discipline.DYNAMIC, 8, "A", BranchMode.SINGLE, 256),
        ]
        results = grid(points)
        assert check_dominance(results) == []
        results[1].work_nodes = results[1].retired_nodes = 100
        findings = check_dominance(results)
        assert rules(findings) == ["dominance.window"]

    def test_result_order_does_not_change_findings(self):
        results = self.slowed(lambda cfg: cfg.issue_model == 8)
        forward = check_dominance(results)
        backward = check_dominance(list(reversed(results)))
        assert sort_findings(forward) == sort_findings(backward)


# ----------------------------------------------------------------------
class TestBaseline:
    def test_default_path_names_grid_and_benchmarks(self):
        assert default_baseline_path(["grep"], grid="smoke") == (
            "baselines/smoke-grep.json"
        )
        assert default_baseline_path(["grep", "sort"], grid="full") == (
            "baselines/full-grep-sort.json"
        )

    def test_record_then_check_roundtrip(self, tmp_path):
        path = str(tmp_path / "base.json")
        results = [graded_result(cfg)
                   for cfg in smoke_configuration_space()]
        document = record_baseline(results, scale=1, path=path)
        assert document["schema"] == "repro.baseline/1"
        assert document["cache_version"] == CACHE_VERSION
        assert document["benchmarks"] == ["grep"]
        assert len(document["points"]) == 40
        on_disk = json.loads((tmp_path / "base.json").read_text())
        assert on_disk == document
        assert check_baseline(results, scale=1, path=path) == []

    def test_drift_beyond_tolerance_gates(self, tmp_path):
        path = str(tmp_path / "base.json")
        results = [graded_result(cfg)
                   for cfg in smoke_configuration_space()]
        record_baseline(results, scale=1, path=path)
        results[0].cycles = int(results[0].cycles * 1.05)
        findings = check_baseline(results, scale=1, path=path)
        assert findings and all(f.severity == "error" for f in findings)
        assert set(rules(findings)) == {"baseline.drift"}
        # Both the cycle count and the derived IPC drifted.
        assert {f.reference for f in findings} == {
            "cycles", "retired_per_cycle",
        }

    def test_mispredicts_are_integer_exact(self, tmp_path):
        path = str(tmp_path / "base.json")
        results = [graded_result(cfg)
                   for cfg in smoke_configuration_space()]
        record_baseline(results, scale=1, path=path)
        results[0].mispredicts += 1
        findings = check_baseline(results, scale=1, path=path)
        assert rules(findings) == ["baseline.drift"]
        assert findings[0].reference == "mispredicts"

    def test_missing_baseline_is_an_error(self, tmp_path):
        findings = check_baseline([], scale=1,
                                  path=str(tmp_path / "absent.json"))
        assert rules(findings) == ["baseline.missing"]
        assert findings[0].severity == "error"

    def test_stale_cache_version_fails_loudly(self, tmp_path):
        path = str(tmp_path / "base.json")
        results = [graded_result(config())]
        record_baseline(results, scale=1, path=path)
        document = json.loads((tmp_path / "base.json").read_text())
        document["cache_version"] = CACHE_VERSION - 1
        (tmp_path / "base.json").write_text(json.dumps(document))
        findings = check_baseline(results, scale=1, path=path)
        # Early return: the version finding alone, no point-level noise.
        assert rules(findings) == ["baseline.version"]
        assert "re-record" in findings[0].message

    def test_scale_mismatch_fails_loudly(self, tmp_path):
        path = str(tmp_path / "base.json")
        results = [graded_result(config())]
        record_baseline(results, scale=1, path=path)
        findings = check_baseline(results, scale=2, path=path)
        assert rules(findings) == ["baseline.scale"]

    def test_coverage_asymmetries_warn_but_do_not_gate(self, tmp_path):
        path = str(tmp_path / "base.json")
        a = graded_result(config(issue=2))
        b = graded_result(config(issue=8))
        record_baseline([a, b], scale=1, path=path)
        c = graded_result(config(issue=4))
        findings = check_baseline([a, c], scale=1, path=path)
        assert rules(findings) == ["baseline.uncovered",
                                   "baseline.unrecorded"]
        assert all(f.severity == "warning" for f in findings)
        assert not has_errors(findings)


# ----------------------------------------------------------------------
class TestOracle:
    def test_clean_grid_reports_ok(self):
        results = [graded_result(cfg)
                   for cfg in smoke_configuration_space()]
        report = run_oracle(results)
        assert report.ok
        assert report.checked_results == 40
        assert report.errors == 0
        document = report.to_dict()
        assert document["schema"] == "repro.validation/1"
        assert document["severities"]["error"] == 0
        assert document["findings"] == []
        assert "baseline" not in document
        assert report.summary_lines()[0] == (
            "validation: 40 result(s) checked, clean, 0 warning(s)"
        )

    def test_findings_are_sorted_and_gate_ok(self):
        results = [graded_result(cfg)
                   for cfg in smoke_configuration_space()]
        results[0].cache_accesses = 9  # invariant.cache on a perfect memory
        report = run_oracle(results)
        assert not report.ok
        assert report.findings == sort_findings(report.findings)

    def test_baseline_layer_runs_only_when_pathed(self, tmp_path):
        results = [graded_result(config())]
        assert run_oracle(results).ok
        report = run_oracle(
            results, baseline_path=str(tmp_path / "none.json")
        )
        assert not report.ok
        assert report.to_dict()["baseline"].endswith("none.json")


# ----------------------------------------------------------------------
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


class TestValidateCommand:
    def test_record_then_check_clean(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _install_stub_simulation(monkeypatch, graded_result)
        baseline = str(tmp_path / "base.json")
        metrics = tmp_path / "telemetry.json"
        code = main([
            "sweep", "--benchmarks", "grep", "--grid", "smoke", "--record",
            "--baseline", baseline, "--metrics-out", str(metrics),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "recorded golden baseline" in out
        document = json.loads(metrics.read_text())
        assert document["validation"]["checked_results"] == 40
        assert document["validation"]["findings"] == []

        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--check", "--baseline", baseline])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_injected_window_slowdown_gates(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def slowed(cfg):
            result = graded_result(cfg)
            if (cfg.discipline is Discipline.DYNAMIC
                    and cfg.window_blocks == 256):
                result.retired_nodes //= 2
                result.work_nodes = result.retired_nodes
            return result

        _install_stub_simulation(monkeypatch, slowed)
        metrics = tmp_path / "telemetry.json"
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--metrics-out", str(metrics)])
        out = capsys.readouterr().out
        assert code == 4
        assert "dominance.window" in out
        found = json.loads(metrics.read_text())["validation"]["findings"]
        assert any(f["rule"] == "dominance.window" for f in found)

    def test_record_refused_on_oracle_rejection(self, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def broken(cfg):
            return graded_result(cfg) if cfg.memory != "C" else (
                clean_result(cfg, cache_accesses=5, cache_misses=9)
            )

        _install_stub_simulation(monkeypatch, broken)
        baseline = tmp_path / "base.json"
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--record", "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert code == 4
        assert "refusing to record" in captured.err
        assert not baseline.exists()

    def test_failed_point_exits_3_and_is_not_recorded(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        wedged = next(iter(smoke_configuration_space()))

        def hangs_once(cfg):
            if cfg == wedged:
                raise SimulationHang("grep", str(cfg), 11, 10)
            return graded_result(cfg)

        _install_stub_simulation(monkeypatch, hangs_once)
        baseline = tmp_path / "base.json"
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--record", "--baseline", str(baseline)])
        err = capsys.readouterr().err
        assert code == 3
        assert "sweep: 1 point(s) failed (hang)" in err
        assert str(wedged) in err
        assert "refusing to record" in err
        assert not baseline.exists()

    def test_baseline_drift_gates(self, tmp_path, monkeypatch, capsys):
        baseline = str(tmp_path / "base.json")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        _install_stub_simulation(monkeypatch, graded_result)
        assert main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--record", "--baseline", baseline]) == 0
        capsys.readouterr()

        def drifted(cfg):
            result = graded_result(cfg)
            result.cycles = int(result.cycles * 1.05)
            return result

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        _install_stub_simulation(monkeypatch, drifted)
        metrics = tmp_path / "telemetry.json"
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--check", "--baseline", baseline,
                     "--metrics-out", str(metrics)])
        out = capsys.readouterr().out
        assert code == 4
        assert "baseline.drift" in out
        found = json.loads(metrics.read_text())["validation"]["findings"]
        drift = [f for f in found if f["rule"] == "baseline.drift"]
        assert drift and all(f["severity"] == "error" for f in drift)


class TestSweepValidateFlag:
    def test_clean_sweep_exits_zero_with_report(self, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _install_stub_simulation(monkeypatch, graded_result)
        metrics = tmp_path / "telemetry.json"
        code = main(["sweep", "--benchmarks", "grep", "--limit", "6",
                     "--metrics-out", str(metrics)])
        captured = capsys.readouterr()
        assert code == 0
        assert "clean" in captured.out
        document = json.loads(metrics.read_text())
        assert document["validation"]["checked_results"] == 6
        assert document["validation"]["severities"]["error"] == 0

    def test_gating_findings_exit_4(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def broken(cfg):
            result = graded_result(cfg)
            if cfg.memory == "D":
                result.discarded_nodes = 50  # unattributed redundancy
                result.mispredicts = 0
            return result

        _install_stub_simulation(monkeypatch, broken)
        code = main(["sweep", "--benchmarks", "grep", "--limit", "7"])
        captured = capsys.readouterr()
        assert code == 4
        assert "invariant.redundancy" in captured.out

    def test_cached_results_feed_the_oracle(self, tmp_path, monkeypatch,
                                            capsys):
        # First sweep fills the cache; a resumed sweep is all cache
        # hits and must still check them.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _install_stub_simulation(monkeypatch, graded_result)
        assert main(["sweep", "--benchmarks", "grep",
                     "--limit", "6"]) == 0
        metrics = tmp_path / "telemetry.json"
        code = main(["sweep", "--benchmarks", "grep", "--limit", "0",
                     "--resume", "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert code == 0
        document = json.loads(metrics.read_text())
        assert document["counters"]["sweep.cache.hit"] == 6
        assert document["validation"]["checked_results"] == 6

    @fork_only
    def test_serial_and_parallel_findings_are_identical(
            self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            result = graded_result(cfg)
            if cfg.memory in ("D", "F"):
                result.discarded_nodes = 50  # unattributed redundancy
                result.mispredicts = 0
            return result

        _install_stub_simulation(monkeypatch, broken)
        documents = {}
        for label, extra in (("serial", []), ("parallel", ["--jobs", "2"])):
            cache_dir = tmp_path / label
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
            metrics = cache_dir / "telemetry.json"
            code = main(["sweep", "--benchmarks", "grep", "--limit", "14",
                         "--metrics-out", str(metrics), *extra])
            assert code == 4
            documents[label] = json.loads(
                metrics.read_text()
            )["validation"]
        capsys.readouterr()
        assert documents["serial"]["findings"]
        assert json.dumps(documents["serial"], sort_keys=True) == (
            json.dumps(documents["parallel"], sort_keys=True)
        )


class TestSweepOracleFlags:
    def test_plain_sweep_exits_4_on_invariant_violation(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

        def broken(cfg):
            result = graded_result(cfg)
            if cfg.discipline is Discipline.STATIC:
                result.window_samples = 100  # a static machine has no window
            return result

        _install_stub_simulation(monkeypatch, broken)
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke"])
        out = capsys.readouterr().out
        assert code == 4
        assert "invariant.window" in out

    def test_failed_point_exit_3_wins_over_findings(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        wedged = next(iter(smoke_configuration_space()))

        def hangs_or_broken(cfg):
            if cfg == wedged:
                raise SimulationHang("grep", str(cfg), 11, 10)
            result = graded_result(cfg)
            if cfg.memory == "C":
                result.cache_accesses = 5  # traffic on a perfect memory
            return result

        _install_stub_simulation(monkeypatch, hangs_or_broken)
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke"])
        captured = capsys.readouterr()
        assert code == 3
        assert "invariant.cache" in captured.out
        assert "sweep: 1 point(s) failed (hang)" in captured.err

    def _refused(self, tmp_path, monkeypatch, capsys, *flags):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        simulated = []

        def stub(cfg):
            simulated.append(cfg)
            return graded_result(cfg)

        _install_stub_simulation(monkeypatch, stub)
        baseline = tmp_path / "base.json"
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--baseline", str(baseline), *flags])
        assert code == 1
        assert not baseline.exists()
        assert simulated == []
        return capsys.readouterr().err

    def test_record_with_limit_writes_nothing(self, tmp_path, monkeypatch,
                                              capsys):
        err = self._refused(tmp_path, monkeypatch, capsys,
                            "--record", "--limit", "5")
        assert "--limit" in err

    def test_baseline_alone_is_refused(self, tmp_path, monkeypatch, capsys):
        err = self._refused(tmp_path, monkeypatch, capsys)
        assert "--check or --record" in err


# ----------------------------------------------------------------------
class TestPaperGridIssueOrder:
    @pytest.mark.xfail(strict=True, reason=(
        "dyn1/single loses 4-12% from the sequential model to 1M+1A on"
        " every paper program and memory (grep at A: 0.702 against"
        " 0.784 IPC); open on the ROADMAP, not yet decided whether the"
        " model or the rule is wrong"))
    def test_dyn1_single_wider_word_does_not_lose(self, grep_prepared):
        from repro.machine.simulator import simulate

        sequential, one_and_one = (
            simulate(grep_prepared, config(issue=issue, window=1))
            for issue in (1, 2)
        )
        assert check_dominance([sequential, one_and_one]) == []


# ----------------------------------------------------------------------
class TestRealSmokeRoundtrip:
    def test_grep_smoke_record_then_check(self, tmp_path, monkeypatch,
                                          grep_prepared, capsys):
        """End to end on real simulations: the 40-point grep smoke grid
        satisfies every invariant and dominance order, and a freshly
        recorded baseline re-checks clean."""
        import os

        from repro.harness.artifacts import default_artifact_root

        monkeypatch.setenv(
            "REPRO_ARTIFACT_DIR", os.path.abspath(default_artifact_root())
        )
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        baseline = str(tmp_path / "smoke-grep.json")
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--record", "--baseline", baseline,
                     "--rel-tol", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out
        # Cache is warm now; the check replays from it.
        code = main(["sweep", "--benchmarks", "grep", "--grid", "smoke",
                     "--check", "--baseline", baseline])
        assert code == 0
        assert "clean" in capsys.readouterr().out
