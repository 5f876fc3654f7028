"""CLI tests (cheap paths only; sweeps are covered by the harness tests)."""

import pytest

from repro.cli import main


class TestList:
    def test_list_prints_axes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out
        assert "4M+12A" in out
        assert "window sizes" in out


class TestDump:
    def test_dump_single(self, capsys, grep_prepared):
        assert main(["dump", "--benchmark", "grep"]) == 0
        out = capsys.readouterr().out
        assert ".entry _start" in out
        assert "block f_main" in out

    def test_dump_enlarged_contains_asserts(self, capsys, grep_prepared):
        assert main(["dump", "--benchmark", "grep", "--enlarged"]) == 0
        out = capsys.readouterr().out
        assert "assert " in out


class TestRun:
    def test_run_point(self, capsys, grep_prepared, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main([
            "run", "--benchmark", "grep", "--discipline", "dynamic",
            "--window", "4", "--issue", "8", "--memory", "A",
            "--branch", "enlarged",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "retired nodes" in out
        assert "cycles" in out


class TestTrace:
    def test_trace_writes_chrome_json(self, capsys, grep_prepared, tmp_path,
                                      monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = tmp_path / "grep.trace.json"
        code = main([
            "trace", "--benchmark", "grep", "--discipline", "dynamic",
            "--window", "4", "--issue", "8", "--memory", "D",
            "--branch", "enlarged", "-o", str(out),
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert events
        names = {event["name"] for event in events}
        assert "issue.slots" in names
        assert "window.occupancy" in names

    def test_trace_writes_jsonl(self, capsys, grep_prepared, tmp_path,
                                monkeypatch):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = tmp_path / "grep.trace.jsonl"
        code = main([
            "trace", "--benchmark", "grep", "--discipline", "static",
            "--issue", "4", "--memory", "A", "--format", "jsonl",
            "-o", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert "ts" in record and "name" in record


class TestSweepTelemetry:
    def test_metrics_out_written_even_at_limit(self, capsys, tmp_path,
                                               monkeypatch, grep_prepared):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        metrics = tmp_path / "telemetry.json"
        code = main([
            "sweep", "--benchmarks", "grep", "--limit", "2",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        assert "limit reached" in capsys.readouterr().out
        document = json.loads(metrics.read_text())
        assert document["schema"] == "repro.telemetry/4"
        assert document["counters"]["sweep.cache.miss"] == 2
        for phase in ("wall_s", "prepare_s", "simulate_s"):
            assert document["histograms"][f"sweep.point.{phase}"][
                "count"] == 2
        assert document["histograms"]["sweep.validate_s"]["count"] == 1
        assert "points" not in document
        assert document["failures"] == []

    def test_telemetry_progress_line(self, capsys, tmp_path, monkeypatch,
                                     grep_prepared):
        import sys

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        code = main(["sweep", "--benchmarks", "grep", "--limit", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "\r[1/560]" in captured.err


class TestArgumentErrors:
    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["run", "--benchmark", "nope"])

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "7"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCompile:
    def test_compile_and_run(self, tmp_path, capsys):
        source = tmp_path / "prog.c"
        source.write_text(
            "int main() { int c = getc(0); while (c >= 0)"
            " { putc(1, c); c = getc(0); } return 3; }"
        )
        stdin = tmp_path / "in.txt"
        stdin.write_text("echo!")
        code = main(["compile", str(source), "--stdin", str(stdin)])
        assert code == 3
        out = capsys.readouterr()
        assert out.out == "echo!"
        assert "nodes retired" in out.err

    def test_dump_asm(self, tmp_path, capsys):
        source = tmp_path / "prog.c"
        source.write_text("int main() { return 0; }")
        assert main(["compile", str(source), "--dump-asm"]) == 0
        out = capsys.readouterr().out
        assert ".entry _start" in out
        assert "block f_main" in out

    def test_compile_error_propagates(self, tmp_path):
        source = tmp_path / "bad.c"
        source.write_text("int main( { }")
        import pytest as _pytest
        from repro.lang.errors import CompileError

        with _pytest.raises(CompileError):
            main(["compile", str(source)])


class TestDot:
    def test_dot_output(self, capsys, grep_prepared):
        assert main(["dump", "--benchmark", "grep", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph cfg {")
        assert '"_start"' in out
        assert out.rstrip().endswith("}")

    def test_dot_enlarged_shows_fault_edges(self, capsys, grep_prepared):
        assert main(["dump", "--benchmark", "grep", "--enlarged", "--dot"]) == 0
        out = capsys.readouterr().out
        assert 'label="fault"' in out
        assert "fillcolor=lightgrey" in out


class TestSweep:
    def test_sweep_limit_budgets_work(self, capsys, tmp_path, monkeypatch,
                                      grep_prepared):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["sweep", "--benchmarks", "grep", "--limit", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "limit reached" in out

    def test_sweep_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError):
            main(["sweep", "--benchmarks", "bogus", "--limit", "1"])
