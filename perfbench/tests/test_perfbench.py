"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

from pbench import cold, warm  # noqa: E402
from pbench.gate import Expected  # noqa: E402
from pbench.metrics import END_TO_END, PER_LAYER, percentile  # noqa: E402
from pbench.spans import Tracer, layer_totals, self_times  # noqa: E402
from pbench.workloads import WORKLOADS  # noqa: E402


def run_bench(workload: str, trace: int, workdir: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--limit", "2", "--workdir", workdir],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smallest_size_emits_every_metric(workload, trace, tmp_path):
    doc = run_bench(workload, trace, str(tmp_path))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == units
    for metric in doc["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3.json").is_file()
    else:
        assert all(doc["metrics"][name]["value"] > 0 for name in END_TO_END)


def test_benchmark_json_declares_what_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_without_source_tree_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        open(os.path.join(BENCH, "run.py"), encoding="utf-8").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# The correctness gate


def _tampered(expected: Expected, pid: str) -> Expected:
    tampered = copy.deepcopy(expected)
    tampered.points[pid]["counters"]["cycles"] += 1
    return tampered


def test_tampered_counter_fails_the_cold_point(tmp_path):
    from repro.harness.artifacts import ArtifactStore
    from repro.harness.cache import ResultCache
    from repro.machine.simulator import simulate
    from repro.workloads import WORKLOADS as PROGRAMS

    expected = Expected.load()
    [(pid, config)] = expected.job_points("smoke", "jsontok", limit=1)
    store = ArtifactStore(root=str(tmp_path / "artifacts"))
    store.ensure(PROGRAMS["jsontok"], 1)
    result = simulate(store.load(PROGRAMS["jsontok"], 1), config)
    ResultCache(str(tmp_path / "results.json")).put(result, 1)

    job = ("smoke", ("jsontok",))
    assert cold.check_job(expected, *job, str(tmp_path), limit=1) == (1, [])
    attempted, failed = cold.check_job(_tampered(expected, pid), *job,
                                       str(tmp_path), limit=1)
    assert attempted == 1
    assert failed == [f"{pid}: cycles"]
    # Without a limit every point of the grid must be there.
    attempted, failed = cold.check_job(expected, *job, str(tmp_path),
                                       limit=None)
    assert attempted == 40 and len(failed) == 39
    assert f"{pid}: cycles" not in failed
    assert cold.check_job(expected, *job, str(tmp_path / "empty"),
                          limit=2) == (2, ["smoke|jsontok: a point is missing"] * 2)


def test_tampered_cycles_fail_the_service_job():
    expected = Expected.load()
    [(pid, config)] = expected.job_points("smoke", "hashjoin", limit=1)
    final = {
        "state": "done",
        "points": {"total": 1, "cached": 1},
        "validation": {"severities": {"error": 0, "warning": 0}},
        "results": [{"benchmark": "hashjoin", "config": str(config),
                     "cycles": expected.cycles(pid)}],
    }
    assert warm.check_job(final, expected, 1) is None
    assert warm.check_job(final, _tampered(expected, pid), 1) is not None
    assert warm.check_job(dict(final, state="failed"), expected, 1)
    assert warm.check_job(dict(final, points={"total": 1, "cached": 0}),
                          expected, 1)
    assert warm.check_job(
        dict(final, validation={"severities": {"error": 1}}), expected, 1)


# ----------------------------------------------------------------------
# Spans


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0, "job"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 0, 3.0, 6.0, "b"),   # overlaps its sibling
        _span(3, 2, 4.0, 5.0, "c"),   # a grandchild counts only against b
        _span(4, 0, 9.0, 12.0, "a"),  # sticks out of its parent
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 2.0, 1.0, 3.0])
    assert layer_totals(spans)["a"] == pytest.approx((6.0, 2))


def test_tracer_links_nested_spans():
    tracer = Tracer("w")
    with tracer.span("outer", "p", "cfg"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert outer["parent"] is None
    assert first["parent"] == second["parent"] == outer["id"]
    assert outer["program"] == "p" and outer["workload"] == "w"
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(
        (outer["end"] - outer["start"])
        - (first["end"] - first["start"])
        - (second["end"] - second["start"]))


def test_percentile_stays_inside_the_sample():
    assert percentile([5.0], 0.9) == 5.0
    assert percentile([1.0, 2.0], 0.5) == pytest.approx(1.5)
    assert percentile(list(range(101)), 0.9) == pytest.approx(90.0)
