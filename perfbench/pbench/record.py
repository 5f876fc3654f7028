"""Record ``expected.json``: every counter of every point, oracle-checked.

Run once at a commit whose results are trusted::

    python3 perfbench/run.py --record

Every point of every workload's jobs is simulated in-process.  Nothing
is written unless the validation oracle reports no errors on each job.
Points that a committed golden baseline (``baselines/*.json``) also
covers are compared with it, and every disagreement is printed.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List

from .cold import fresh_dir
from .gate import (EXPECTED_PATH, Expected, config_fields, counters_of,
                   job_id, point_id)
from .workloads import ALL_JOBS


def grid_configs(grid: str, program: str) -> List[Any]:
    from repro.machine import config as mc

    if grid == "smoke":
        return list(mc.smoke_configuration_space())
    if grid == "cache":
        return list(mc.cache_configuration_space(program))
    if grid == "spec":
        return list(mc.spec_configuration_space(program))
    raise ValueError(f"no recorder for grid {grid!r}")


def compare_baselines(baseline_dir: str, by_key: Dict[str, Any]) -> List[str]:
    """Disagreements between recorded results and committed baselines."""
    lines = []
    covered = 0
    for path in sorted(glob.glob(os.path.join(baseline_dir, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)
        for key, metrics in sorted(baseline.get("points", {}).items()):
            result = by_key.get(key)
            if result is None:
                continue
            covered += 1
            for metric, want in sorted(metrics.items()):
                got = getattr(result, metric)
                if got != want:
                    lines.append(f"  {os.path.basename(path)} {key}"
                                 f" {metric}: baseline {want}, code {got}")
    return [f"baselines: {covered} recorded point(s) covered,"
            f" {len(lines)} disagreement(s)"] + lines


def record(work: str, root: str, path: str = EXPECTED_PATH) -> int:
    from repro.harness.artifacts import ArtifactStore
    from repro.harness.cache import result_key
    from repro.machine.simulator import simulate
    from repro.validate import run_oracle
    from repro.workloads import WORKLOADS

    store = ArtifactStore(root=fresh_dir(os.path.join(work, "artifacts")))
    prepared: Dict[str, Any] = {}
    jobs: Dict[str, List[str]] = {}
    points: Dict[str, Dict[str, Any]] = {}
    by_key: Dict[str, Any] = {}
    refused = False
    for grid, program in ALL_JOBS:
        if program not in prepared:
            store.ensure(WORKLOADS[program], 1)
            prepared[program] = store.load(WORKLOADS[program], 1)
        results = []
        for config in grid_configs(grid, program):
            result = simulate(prepared[program], config)
            results.append(result)
            pid = point_id(program, config)
            points[pid] = {"config": config_fields(config),
                           "counters": counters_of(result)}
            by_key[result_key(program, config, 1)] = result
        jobs[job_id(grid, program)] = [point_id(program, r.config)
                                       for r in results]
        report = run_oracle(results, scale=1)
        print(f"{grid}|{program}: {len(results)} point(s); "
              + "; ".join(report.summary_lines()))
        if not report.ok:
            refused = True
    for line in compare_baselines(os.path.join(root, "baselines"), by_key):
        print(line)
    if refused:
        print("refusing to record: the oracle reported errors")
        return 1
    Expected.dump(jobs, points, 1, path)
    print(f"recorded {len(points)} point(s) in {len(jobs)} job(s) to {path}")
    return 0
