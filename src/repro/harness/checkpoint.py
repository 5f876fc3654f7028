"""Sweep checkpoint manifest: ``sweep.state.json``.

A long sweep killed midway leaves its good points in the result cache,
but nothing that records *which* points were attempted, which failed and
why.  The checkpoint manifest fills that gap: the sweep command writes
it atomically as points complete, and ``--resume`` reads it back to

* skip re-attempting points recorded as permanently failed (their
  :class:`PointFailure` records are carried forward into the new run's
  report), and
* restore progress accounting, while the result cache supplies the
  completed points themselves.

The manifest is keyed by the same ``result_key`` strings as the result
cache (which embed ``CACHE_VERSION``), so a simulator-behaviour bump
invalidates checkpoints and cached results together.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from ..chaos.inject import fire as chaos_fire, recovered as chaos_recovered
from ..telemetry.logging import get_logger
from .cache import atomic_write_json
from .errors import PointFailure

_LOG = get_logger("checkpoint")

#: Manifest layout version.
CHECKPOINT_VERSION = 1

#: Default manifest filename, placed next to the result cache.
CHECKPOINT_BASENAME = "sweep.state.json"


def default_checkpoint_path() -> str:
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return os.path.join(root, CHECKPOINT_BASENAME)


class SweepCheckpoint:
    """Atomic, resumable record of one sweep's progress.

    Single-writer: only the sweep's parent process writes the manifest.
    Parallel backends (``--jobs N``) mail point outcomes back to the
    parent, which folds them in here -- workers never open this file.
    """

    def __init__(self, path: str, benchmarks: Sequence[str], scale: int,
                 total: int, save_interval: int = 25,
                 backend: str = "serial"):
        self.path = path
        self.benchmarks = list(benchmarks)
        self.scale = scale
        self.total = total
        #: Informational: which execution backend last wrote this
        #: manifest.  Never part of compatibility -- keys are identical
        #: across backends, so a serial sweep resumes under ``--jobs N``
        #: and vice versa.
        self.backend = backend
        self.done: set = set()
        self.failures: Dict[str, PointFailure] = {}
        self._save_interval = max(1, save_interval)
        self._since_save = 0
        self._write_failed = False

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> Optional["SweepCheckpoint"]:
        """Read a manifest; None when missing, corrupt or wrong version."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict) or raw.get("version") != CHECKPOINT_VERSION:
            return None
        try:
            checkpoint = cls(
                path=path,
                benchmarks=list(raw["benchmarks"]),
                scale=int(raw["scale"]),
                total=int(raw["total"]),
                backend=str(raw.get("backend", "serial")),
            )
            checkpoint.done = set(raw.get("done", []))
            checkpoint.failures = {
                str(entry["key"]): PointFailure.from_dict(entry["failure"])
                for entry in raw.get("failures", [])
            }
        except (KeyError, TypeError, ValueError):
            return None
        return checkpoint

    def compatible_with(self, benchmarks: Sequence[str], scale: int) -> bool:
        """Whether a resume attempt matches the sweep this recorded."""
        return self.benchmarks == list(benchmarks) and self.scale == scale

    # ------------------------------------------------------------------
    def mark_done(self, key: str) -> None:
        """Record one completed point (by its result-cache key)."""
        self.done.add(key)
        self.failures.pop(key, None)
        self._since_save += 1
        if self._since_save >= self._save_interval:
            self.save()

    def mark_failed(self, key: str, failure: PointFailure) -> None:
        """Record one failed point; failures always flush immediately."""
        self.failures[key] = failure
        self.done.discard(key)
        self.save()

    def failed_point(self, key: str) -> Optional[PointFailure]:
        """The recorded failure for a point, if any."""
        return self.failures.get(key)

    def known_failures(self) -> List[PointFailure]:
        return list(self.failures.values())

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Write the manifest atomically (temp file + ``os.replace``).

        A failed write is tolerated: the manifest is an accelerator, not
        the source of truth (the result cache is), so the sweep keeps
        going and the retained ``_since_save`` count retries the write at
        the next completed point.
        """
        document = {
            "version": CHECKPOINT_VERSION,
            "benchmarks": self.benchmarks,
            "scale": self.scale,
            "total": self.total,
            "backend": self.backend,
            "done": sorted(self.done),
            "failures": [
                {"key": key, "failure": failure.to_dict()}
                for key, failure in sorted(self.failures.items())
            ],
        }
        try:
            chaos_fire("checkpoint.write")
            atomic_write_json(self.path, document)
        except OSError as exc:
            self._write_failed = True
            _LOG.warning("checkpoint_save_failed", path=self.path,
                         error=f"{type(exc).__name__}: {exc}")
            return
        if self._write_failed:
            self._write_failed = False
            _LOG.info("checkpoint_save_recovered", path=self.path)
            chaos_recovered("checkpoint.write")
        self._since_save = 0

    def remove(self) -> None:
        """Delete the manifest (a fully clean sweep needs no resume)."""
        try:
            os.remove(self.path)
        except OSError:
            pass
