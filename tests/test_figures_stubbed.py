"""Figure aggregation logic, exercised against a stubbed runner.

These verify the figure-data plumbing (which configs are requested, how
results aggregate) without running any timing simulations: the stub
returns synthetic results whose IPC encodes the configuration.
"""

import os
from types import SimpleNamespace
from typing import Any, Dict, List, Tuple

import pytest

from repro.harness import figures
from repro.harness.figures import (
    FIGURE5_COMPOSITES,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
)
from repro.machine.config import BranchMode, Discipline, MachineConfig
from repro.stats.results import SimResult


class StubRunner:
    """Mimics SweepRunner.mean_ipc / mean_redundancy / run_point."""

    def __init__(self, benchmarks=("alpha", "beta")):
        self.benchmarks = list(benchmarks)
        self.requested = []

    def _result(self, benchmark: str, config: MachineConfig) -> SimResult:
        # Encode config identity in the numbers for verification.
        ipc_scale = config.issue_model * 100 + ord(config.memory)
        return SimResult(
            benchmark=benchmark,
            config=config,
            cycles=1000,
            retired_nodes=ipc_scale * 10,
            discarded_nodes=config.window_blocks,
            dynamic_blocks=10,
            work_nodes=ipc_scale * 10,
        )

    def run_point(self, benchmark, config):
        self.requested.append((benchmark, config))
        return self._result(benchmark, config)

    def mean_ipc(self, config, benchmarks=None):
        return self._result("x", config).retired_per_cycle

    def mean_redundancy(self, config, benchmarks=None):
        result = self._result("x", config)
        return result.redundancy


class TestFigure3Plumbing:
    def test_ten_lines_eight_points(self):
        data = figure3_data(StubRunner())
        lines = [k for k in data if not k.startswith("_")]
        assert len(lines) == 10
        for label in lines:
            assert len(data[label]) == 8

    def test_memory_is_A(self):
        data = figure3_data(StubRunner())
        # IPC encodes memory letter: all points must use memory A.
        for label in data:
            if label.startswith("_"):
                continue
            for index, value in enumerate(data[label]):
                expected = ((index + 1) * 100 + ord("A")) * 10 / 1000
                assert value == pytest.approx(expected)


class TestFigure4Plumbing:
    def test_memory_order_respected(self):
        data = figure4_data(StubRunner())
        assert data["_memories"] == list(figures.FIGURE4_MEMORY_ORDER)
        series = data["static/single"]
        for memory, value in zip(data["_memories"], series):
            expected = (8 * 100 + ord(memory)) * 10 / 1000
            assert value == pytest.approx(expected)


class TestFigure5Plumbing:
    def test_one_series_per_benchmark(self):
        runner = StubRunner(benchmarks=("sort", "grep", "diff"))
        data = figure5_data(runner)
        assert set(k for k in data if not k.startswith("_")) == {
            "sort", "grep", "diff"
        }
        assert len(data["sort"]) == len(FIGURE5_COMPOSITES)

    def test_uses_dyn4_enlarged(self):
        runner = StubRunner(benchmarks=("sort",))
        figure5_data(runner)
        for _, config in runner.requested:
            assert config.discipline is Discipline.DYNAMIC
            assert config.window_blocks == 4
            assert config.branch_mode is BranchMode.ENLARGED


class TestFigure6Plumbing:
    def test_redundancy_series(self):
        data = figure6_data(StubRunner())
        lines = [k for k in data if not k.startswith("_")]
        assert len(lines) == 10
        # Window size encoded in discarded_nodes: bigger window -> more.
        wide = {k: v[-1] for k, v in data.items() if not k.startswith("_")}
        assert wide["dyn256/single"] > wide["dyn4/single"] > 0


class TestReportGeneration:
    def test_report_with_stub_runner(self, monkeypatch):
        """generate_report assembles all sections from runner data."""
        from repro.harness import report as report_mod

        runner = StubRunner(benchmarks=("sort", "grep"))
        runner.scale = 1

        # figure2/static-ratio need real workloads; stub them out.
        monkeypatch.setattr(
            report_mod, "figure2_data",
            lambda r: {
                "buckets": ["0-4", "5+"],
                "single": [0.6, 0.4],
                "enlarged": [0.2, 0.8],
            },
        )
        monkeypatch.setattr(
            report_mod, "static_ratio_data",
            lambda r: {"sort": 2.5, "grep": 3.0},
        )
        monkeypatch.setattr(
            report_mod, "schedule_gap_data",
            lambda r: [("sort", SimpleNamespace(
                blocks=(), closed_blocks=0, list_words=10, optimal_words=8,
                lower_bound_words=8, gap_percent=20.0, loops=[],
            ), 1.0, 1.2)],
        )
        text, _ = report_mod.generate_report(runner)
        assert "# EXPERIMENTS" in text
        assert "Figure 2" in text
        assert "Figure 3" in text
        assert "Figure 4" in text
        assert "Figure 5" in text
        assert "Figure 6" in text
        assert "2.75" in text  # mean static ratio
        assert "dyn256/enlarged" in text


# ----------------------------------------------------------------------
# The claims table, judged on data shaped like the committed report
# ----------------------------------------------------------------------
def _section(text: str, heading: str) -> str:
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:] if end < 0 else text[start:end]


def _table(section: str) -> Tuple[List[str], Dict[str, List[float]]]:
    """The first markdown table of a section: its column labels and
    ``{row label: values}`` (a trailing ``%`` is dropped)."""
    lines = section.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line.strip("|").split("|"))
    header, body = rows[0], rows[2:]
    values = {cells[0].strip(): [float(cell.strip().rstrip("%"))
                                 for cell in cells[1:]]
              for cells in body}
    return [cell.strip() for cell in header[1:]], values


def committed_report_data() -> Dict[str, Any]:
    """``report_data``'s shape, read back from the committed EXPERIMENTS.md."""
    path = os.path.join(os.path.dirname(__file__), "..", "EXPERIMENTS.md")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    ratios = {}
    for line in _section(text, "## §3.1").splitlines():
        if line.startswith("- ") and "mean" not in line:
            name, value = line[2:].split(":")
            ratios[name] = float(value)
    buckets, fig2 = _table(_section(text, "## Figure 2"))
    fig2["buckets"] = buckets
    data: Dict[str, Any] = {"ratios": ratios, "fig2": fig2}
    for key, heading, axis, parse in (
        ("fig3", "## Figure 3", "_issue_models", int),
        ("fig4", "## Figure 4", "_memories", str),
        ("fig5", "## Figure 5", "_composites", str),
        ("fig6", "## Figure 6", "_issue_models", int),
        ("spec", "## Value speculation", "_issue_models", int),
    ):
        columns, series = _table(_section(text, heading))
        series[axis] = [parse(column) for column in columns]
        data[key] = series
    _, sched = _table(_section(text, "## Optimal static scheduling"))
    data["sched"] = [
        (name, SimpleNamespace(
            blocks=range(int(blocks)), closed_blocks=int(closed),
            list_words=int(listed), optimal_words=int(optimal),
            lower_bound_words=int(bound), gap_percent=gap, loops=[],
        ), ipc_list, ipc_optimal)
        for name, (blocks, closed, listed, optimal, bound, gap, ipc_list,
                   ipc_optimal) in sched.items()
    ]
    data["spec_accuracy"] = "Aggregate prediction accuracy: stub."
    return data


def window_capped(data: Dict[str, Any]) -> Dict[str, Any]:
    """``data`` with every dyn256 line replaced by its dyn4 twin, as when
    the dynamic engine caps its window at four blocks."""
    capped = dict(data)
    for key in ("fig3", "fig4", "fig6"):
        capped[key] = {
            label: data[key][label.replace("dyn256/", "dyn4/")]
            if label.startswith("dyn256/") else series
            for label, series in data[key].items()
        }
    return capped


WINDOW_ROW = "window 4 comes close to window 256"


class TestClaims:
    def test_every_row_holds_and_renders_one_line(self):
        from repro.harness.report import CLAIMS, verdicts_section

        data = committed_report_data()
        text, failures = verdicts_section(data)
        assert failures == []
        rows = [line for line in text.splitlines()
                if line.startswith("| ") and not line.startswith("| Source")]
        assert len(rows) == len(CLAIMS)
        for claim, row in zip(CLAIMS, rows):
            assert claim.words in row
            assert f"| {claim.bound()} | yes |" in row
        for claim in CLAIMS:
            if claim.why:
                assert claim.why in text

    def test_window_capped_at_four_fails_the_window_row(self):
        from repro.harness.report import verdicts_section

        _, failures = verdicts_section(window_capped(committed_report_data()))
        assert any(WINDOW_ROW in failure for failure in failures)

    def test_report_exits_0_when_every_claim_holds_and_4_when_one_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.harness import report as report_mod

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        data = committed_report_data()
        monkeypatch.setattr(report_mod, "report_data", lambda runner: data)
        output = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "-o", str(output)]) == 0
        assert "## Verdicts" in output.read_text(encoding="utf-8")
        assert "claim does not hold" not in capsys.readouterr().err

        data = window_capped(data)
        assert main(["report", "-o", str(output)]) == 4
        err = capsys.readouterr().err
        assert WINDOW_ROW in err
        assert "**NO**" in output.read_text(encoding="utf-8")
