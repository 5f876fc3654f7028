"""Correctness gate: every counter of every point, recorded once.

``expected.json`` holds, for every point any workload simulates, the
configuration and every integer counter of its ``SimResult``, recorded
at a commit whose results the validation oracle accepted.  Records are
keyed by program and configuration string (``grep|dyn4/enlarged/4M+12A/A``),
not by result-cache key, so a ``CACHE_VERSION`` bump does not orphan
them.  A point whose result is missing, or differs in any recorded
counter, is a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, List, Optional, Tuple

SCHEMA = "perfbench.expected/1"

EXPECTED_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "expected.json",
)


def point_id(program: str, config: Any) -> str:
    return f"{program}|{config}"


def job_id(grid: str, program: str) -> str:
    return f"{grid}|{program}"


def config_fields(config: Any) -> Dict[str, Any]:
    """The constructor arguments that rebuild ``config``."""
    return {
        "discipline": config.discipline.value,
        "issue_model": config.issue_model,
        "memory": config.memory,
        "branch_mode": config.branch_mode.value,
        "window_blocks": config.window_blocks,
        "static_hints": config.static_hints,
        "predictor": config.predictor,
        "value_predictor": config.value_predictor,
        "optimal_schedule": config.optimal_schedule,
    }


def make_config(fields: Dict[str, Any]) -> Any:
    from repro.machine.config import BranchMode, Discipline, MachineConfig

    args = dict(fields)
    args["discipline"] = Discipline(args["discipline"])
    args["branch_mode"] = BranchMode(args["branch_mode"])
    return MachineConfig(**args)


def counter_names() -> List[str]:
    """Every integer counter a ``SimResult`` carries."""
    from repro.stats.results import SimResult

    return [field.name for field in dataclasses.fields(SimResult)
            if field.type in (int, "int")]


def counters_of(result: Any) -> Dict[str, int]:
    return {name: getattr(result, name) for name in counter_names()}


class Expected:
    """The recorded counters, and the points of each (grid, program) job.

    ``points`` maps a point id to its ``config`` fields and its
    ``counters`` by name.
    """

    def __init__(self, document: Dict[str, Any]):
        if document.get("schema") != SCHEMA:
            raise ValueError(f"expected schema {SCHEMA!r}")
        self.scale: int = document["scale"]
        self.jobs: Dict[str, List[str]] = document["jobs"]
        names = document["counters"]
        self.points: Dict[str, Dict[str, Any]] = {
            pid: {"config": record["config"],
                  "counters": dict(zip(names, record["counters"]))}
            for pid, record in document["points"].items()
        }

    @classmethod
    def load(cls, path: str = EXPECTED_PATH) -> "Expected":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    @staticmethod
    def dump(jobs: Dict[str, List[str]], points: Dict[str, Dict[str, Any]],
             scale: int, path: str) -> None:
        """Write the document, one point per line."""
        names = counter_names()
        lines = []
        for pid, record in sorted(points.items()):
            row = {"config": record["config"],
                   "counters": [record["counters"][n] for n in names]}
            lines.append(f"{json.dumps(pid)}: {json.dumps(row, sort_keys=True)}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                f'{{"schema": {json.dumps(SCHEMA)}, "scale": {scale},\n'
                f' "counters": {json.dumps(names)},\n'
                f' "jobs": {json.dumps(jobs, indent=1, sort_keys=True)},\n'
                ' "points": {\n' + ",\n".join(lines) + "\n}}\n"
            )

    def job_points(self, grid: str, program: str,
                   limit: Optional[int] = None) -> List[Tuple[str, Any]]:
        """``(point id, MachineConfig)`` in the order the grid sweeps them."""
        ids = self.jobs[job_id(grid, program)]
        if limit is not None:
            ids = ids[:limit]
        return [(pid, make_config(self.points[pid]["config"])) for pid in ids]

    def mismatches(self, pid: str, result: Any) -> List[str]:
        """Recorded counters ``result`` gets wrong (``missing``: no result)."""
        if result is None:
            return ["missing"]
        recorded = self.points[pid]["counters"]
        return [name for name, value in recorded.items()
                if getattr(result, name, None) != value]

    def cycles(self, pid: str) -> Optional[int]:
        record = self.points.get(pid)
        return None if record is None else record["counters"]["cycles"]
