"""Job model for the simulation service.

A job is one grid query -- "simulate these benchmarks over this
configuration grid" -- accepted by the daemon and executed
asynchronously.  Two design rules keep the model restart-safe:

* **Deterministic identity.**  A job's id is derived from the sorted
  result-cache keys of its points (plus a per-daemon acceptance
  sequence number for uniqueness), so identical grid queries are
  recognizably identical across restarts, logs and clients, and the
  id pins exactly which ``CACHE_VERSION`` the results belong to.
* **Journaled acceptance.**  Every accepted job and every state
  transition is appended to a JSONL journal before it is acknowledged.
  A daemon restart replays the journal: finished jobs reappear for
  status queries, and accepted-but-unfinished jobs are re-queued.  The
  journal never records results -- completed points live in the result
  cache, which is why a replayed job re-runs at cache-hit speed instead
  of duplicating work.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..chaos.inject import fire as chaos_fire, recovered as chaos_recovered
from ..harness.backend import PointTask
from ..harness.cache import atomic_write_text
from ..harness.sweep import grid_tasks
from ..machine.config import GRIDS
from ..telemetry.collector import Collector, NULL_COLLECTOR
from ..telemetry.logging import get_logger

_LOG = get_logger("journal")

#: Journal layout version (a line with another version is ignored).
JOURNAL_VERSION = 1

#: Default journal filename, placed next to the result cache.
JOURNAL_BASENAME = "service.journal.jsonl"

# Job lifecycle -------------------------------------------------------
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})

#: The fields of one point record, in order: a job's ``results`` are
#: these fields of its ``point`` events (``ipc`` and ``cycles`` only
#: when the point has a result, ``error`` only when it failed).
POINT_RECORD_FIELDS = ("benchmark", "config", "status", "ipc", "cycles",
                       "error")


class SpecError(ValueError):
    """A malformed or unsatisfiable grid spec (the client's fault: 400)."""


def default_journal_path() -> str:
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return os.path.join(root, JOURNAL_BASENAME)


@dataclass(frozen=True)
class GridSpec:
    """What a client asks the service to simulate.

    ``scale`` of None means "the daemon's configured scale" -- the
    result-cache keys embed the scale, so one daemon serves one scale
    and the scheduler rejects explicit mismatches at admission.
    """

    benchmarks: Tuple[str, ...]
    grid: str = "smoke"
    scale: Optional[int] = None
    #: keep only the first N points of the fan-out (budgeting / tests).
    limit: Optional[int] = None

    @classmethod
    def from_dict(cls, raw: Any) -> "GridSpec":
        """Parse and validate an untrusted spec document."""
        from ..workloads import WORKLOADS

        if not isinstance(raw, dict):
            raise SpecError("spec must be a JSON object")
        unknown_fields = set(raw) - {"benchmarks", "grid", "scale", "limit"}
        if unknown_fields:
            raise SpecError(f"unknown spec fields: {sorted(unknown_fields)}")
        benchmarks = raw.get("benchmarks")
        if benchmarks is None:
            benchmarks = sorted(WORKLOADS)
        if (not isinstance(benchmarks, (list, tuple)) or not benchmarks
                or not all(isinstance(name, str) for name in benchmarks)):
            raise SpecError("benchmarks must be a non-empty list of names")
        unknown = [name for name in benchmarks if name not in WORKLOADS]
        if unknown:
            raise SpecError(f"unknown benchmarks: {unknown}")
        grid = raw.get("grid", "smoke")
        if grid not in GRIDS:
            raise SpecError(f"unknown grid {grid!r}; pick from {sorted(GRIDS)}")
        scale = raw.get("scale")
        if scale is not None and (not isinstance(scale, int) or scale < 1):
            raise SpecError("scale must be a positive integer")
        limit = raw.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 1):
            raise SpecError("limit must be a positive integer")
        return cls(benchmarks=tuple(benchmarks), grid=grid, scale=scale,
                   limit=limit)

    def to_dict(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "benchmarks": list(self.benchmarks),
            "grid": self.grid,
        }
        if self.scale is not None:
            document["scale"] = self.scale
        if self.limit is not None:
            document["limit"] = self.limit
        return document

    # ------------------------------------------------------------------
    def points(self, scale: int) -> List[PointTask]:
        """The job's fan-out, in the sweep loop's benchmark-major order.

        Each program's tasks are built once per process
        (:func:`~repro.harness.sweep.grid_tasks`), so a resubmitted
        query costs no configuration or key formatting.
        """
        return grid_tasks(self.grid, self.benchmarks, scale, self.limit)


def points_digest(points: Sequence[PointTask]) -> str:
    """Deterministic identity of a grid query: the hash of its fan-out.

    Hashes the sorted result-cache keys of ``points`` (a spec's
    :meth:`GridSpec.points` at one scale), so two specs naming the same
    point set -- and only those -- share a digest, and any
    ``CACHE_VERSION`` bump changes every digest with it.
    """
    hasher = hashlib.sha256()
    for key in sorted(point.key for point in points):
        hasher.update(key.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:12]


@dataclass
class SweepJob:
    """One accepted grid query and everything known about its progress.

    Mutable state is owned by the scheduler (all mutation happens under
    its lock); HTTP handlers only ever see :meth:`to_dict` snapshots.
    """

    job_id: str
    spec: GridSpec
    seq: int
    scale: int
    points_total: int
    state: str = JOB_QUEUED
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    points_cached: int = 0
    points_fresh: int = 0
    points_failed: int = 0
    cancel_requested: bool = False
    error: Optional[str] = None
    #: per-job telemetry counter deltas, stamped at completion.
    counters: Dict[str, int] = field(default_factory=dict)
    #: per-job validation oracle report (``serve --validate``).
    validation: Optional[Dict[str, Any]] = None
    #: the job's progress stream; an event's ``seq`` is its 1-based
    #: index, and the ``point`` events are the job's point records.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: the long-polls waiting on this job: each one's ``after`` and the
    #: condition it sleeps on, so an event wakes only those it answers.
    waiters: List[Tuple[int, threading.Condition]] = field(
        default_factory=list, repr=False)

    @property
    def points_resolved(self) -> int:
        return self.points_cached + self.points_fresh + self.points_failed

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self, include_results: bool = True) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "job_id": self.job_id,
            "seq": self.seq,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "scale": self.scale,
            "points": {
                "total": self.points_total,
                "resolved": self.points_resolved,
                "cached": self.points_cached,
                "fresh": self.points_fresh,
                "failed": self.points_failed,
            },
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
        }
        if self.counters:
            document["counters"] = dict(self.counters)
        if self.validation is not None:
            document["validation"] = self.validation
        if include_results:
            document["results"] = [
                {name: event[name] for name in POINT_RECORD_FIELDS
                 if name in event}
                for event in self.events if event["kind"] == "point"
            ]
        return document


class JobJournal:
    """Append-only JSONL record of accepted jobs and their transitions.

    One line per event, flushed immediately, so a killed daemon loses at
    most the event being written.  Replay tolerates a truncated final
    line (the usual crash artefact) by skipping unparsable lines.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None

    def _open(self):
        if self._handle is None:
            directory = os.path.dirname(self.path) or "."
            os.makedirs(directory, exist_ok=True)
            heal = False
            try:
                with open(self.path, "rb") as probe:
                    probe.seek(-1, os.SEEK_END)
                    heal = probe.read(1) != b"\n"
            except (OSError, ValueError):
                pass  # absent or empty journal: nothing to heal
            self._handle = open(self.path, "a", encoding="utf-8")
            if heal:
                # The previous writer died mid-record.  Terminate the
                # torn tail so this writer's first record starts on a
                # fresh line instead of gluing onto the fragment (which
                # would garble a well-formed record too).
                self._handle.write("\n")
                self._handle.flush()
                _LOG.warning("journal_torn_tail_healed", path=self.path)
        return self._handle

    def append(self, record: Dict[str, Any]) -> None:
        record = dict(record)
        record["v"] = JOURNAL_VERSION
        line = json.dumps(record, sort_keys=True) + "\n"
        rule = chaos_fire("journal.append")
        if rule is not None and rule.kind == "torn-write":
            handle = self._open()
            handle.write(line[: max(1, len(line) // 2)])
            handle.flush()
            self.close()  # the writer "died" mid-record
            return
        handle = self._open()
        handle.write(line)
        handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    @staticmethod
    def replay(path: str,
               collector: Collector = NULL_COLLECTOR) -> List[Dict[str, Any]]:
        """All well-formed journal records at ``path``, in write order.

        A truncated final line (the usual crash artefact) is skipped and
        counted under ``journal.torn_tail``; an unparsable line anywhere
        else means on-disk damage and counts under ``journal.garbled``.
        Both are logged -- replay never raises on bad records.
        """
        records: List[Dict[str, Any]] = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw_lines = handle.readlines()
        except OSError:
            return []
        for index, line in enumerate(raw_lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if index == len(raw_lines) - 1:
                    collector.count("journal.torn_tail")
                    _LOG.warning("journal_torn_tail", path=path,
                                 line=index + 1)
                else:
                    collector.count("journal.garbled")
                    _LOG.warning("journal_garbled_record", path=path,
                                 line=index + 1)
                chaos_recovered("journal.append")
                continue
            if (isinstance(record, dict)
                    and record.get("v") == JOURNAL_VERSION):
                records.append(record)
        return records

    def rewrite(self, records: Sequence[Dict[str, Any]]) -> None:
        """Compact the journal to ``records`` (restart-time hygiene).

        The compacted journal replaces the old one atomically: a failed
        rewrite raises and leaves the old journal as it was.
        """
        self.close()
        atomic_write_text(self.path, "".join(
            json.dumps(dict(record, v=JOURNAL_VERSION), sort_keys=True)
            + "\n"
            for record in records
        ))
