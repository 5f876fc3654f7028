"""Versioned on-disk store of prepared-workload artifacts.

Preparing a benchmark (compile, profile on the training input, enlarge,
functional traces on the evaluation input) is the expensive, per-program
half of the paper's flow; every timing point only *replays* the
resulting artifacts.  This store materializes those artifacts once --
programs as assembly text, traces in the binary format of
:mod:`repro.interp.trace_io` -- so any number of processes (the serial
runner, ``--jobs N`` pool workers, the repository benchmark) can load
them instead of re-compiling and re-tracing per point.

Layout, under ``REPRO_ARTIFACT_DIR`` (default:
``$REPRO_CACHE_DIR/workloads``)::

    v{ARTIFACT_VERSION}/{name}-s{scale}-{digest}/
        single.asm  enlarged.asm  single.trace  enlarged.trace
        manifest.json          # written last: the commit point

**Versioning rule.**  Two independent knobs invalidate artifacts:

* ``PREPARE_CACHE_VERSION`` feeds the content digest -- bump it when
  preparation *semantics* change (profiling, enlargement, tracing), so
  stale artifacts can never satisfy a lookup;
* ``ARTIFACT_VERSION`` names the directory layout -- bump it when the
  on-disk *format* changes (new files, manifest schema), stranding old
  trees without misreading them.

A directory without a valid ``manifest.json`` is invisible: the
manifest is written atomically after every artifact file, so a writer
killed mid-save leaves an ignorable partial directory, never a corrupt
load.  Concurrent writers of the same digest converge on identical
bytes, and the atomic manifest replace makes the race harmless.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from ..chaos.inject import fire as chaos_fire, recovered as chaos_recovered
from ..interp.trace_io import load_trace_file, save_trace_file
from ..machine.simulator import PreparedWorkload
from ..program.parser import parse_program
from ..program.printer import format_program
from ..telemetry.collector import Collector, NULL_COLLECTOR
from ..telemetry.logging import get_logger
from .cache import atomic_write_json, quarantine_path

_LOG = get_logger("artifacts")

#: Bump to invalidate prepared artifacts after preparation-semantics
#: changes (the value is hashed into every artifact digest).
#: 2: traces record the per-load value stream (value prediction).
#: 3: liveness keeps what an assert's fault target reads (crc32's
#:    enlarged program keeps one more node).
PREPARE_CACHE_VERSION = 3

#: Bump when the on-disk artifact layout or manifest schema changes.
ARTIFACT_VERSION = 1

#: The artifact files one prepared workload materializes to.
ARTIFACT_FILES = (
    "single.asm",
    "enlarged.asm",
    "single.trace",
    "enlarged.trace",
)

_MANIFEST = "manifest.json"


def default_artifact_root() -> str:
    """The artifact-store root directory (env-overridable)."""
    root = os.environ.get("REPRO_ARTIFACT_DIR")
    if root:
        return root
    cache = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    return os.path.join(cache, "workloads")


def workload_digest(workload: Any, scale: int) -> str:
    """Content hash covering everything a prepared workload depends on."""
    hasher = hashlib.sha256()
    hasher.update(str(PREPARE_CACHE_VERSION).encode())
    hasher.update(workload.source.encode())
    for kind in ("train", "eval"):
        for fd, blob in sorted(workload.make_inputs(kind, scale).items()):
            hasher.update(str(fd).encode())
            hasher.update(blob)
    return hasher.hexdigest()[:16]


class ArtifactStore:
    """Load/save prepared workloads under a versioned directory tree.

    ``workload`` arguments are duck-typed: anything with ``name``,
    ``source``, ``make_inputs(kind, scale)`` and
    ``prepare(scale=...)`` (i.e. :class:`repro.workloads.base.Workload`)
    works; this module deliberately does not import the workload
    registry so the ``workloads`` package can call into it lazily
    without an import cycle.
    """

    def __init__(self, root: Optional[str] = None,
                 collector: Collector = NULL_COLLECTOR):
        self.root = root if root is not None else default_artifact_root()
        self.collector = collector

    # ------------------------------------------------------------------
    def _quarantine(self, directory: str, benchmark: str) -> None:
        """Move a corrupt artifact directory aside for post-mortem."""
        try:
            target = quarantine_path(self.root, os.path.basename(directory))
            os.replace(directory, target)
        except OSError:
            return
        self.collector.count("artifacts.quarantined")
        _LOG.warning("artifacts_quarantined", benchmark=benchmark,
                     directory=directory, moved_to=target)
        chaos_recovered("artifacts.read")

    # ------------------------------------------------------------------
    def directory(self, workload: Any, scale: int) -> str:
        """The versioned directory one prepared workload lives in."""
        return os.path.join(
            self.root,
            f"v{ARTIFACT_VERSION}",
            f"{workload.name}-s{scale}-{workload_digest(workload, scale)}",
        )

    def _manifest(self, directory: str) -> Optional[Dict[str, Any]]:
        try:
            with open(os.path.join(directory, _MANIFEST),
                      encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(raw, dict):
            return None
        if raw.get("artifact_version") != ARTIFACT_VERSION:
            return None
        if raw.get("prepare_version") != PREPARE_CACHE_VERSION:
            return None
        files = raw.get("files")
        if not isinstance(files, list) or set(files) != set(ARTIFACT_FILES):
            return None
        if not all(
            os.path.exists(os.path.join(directory, name)) for name in files
        ):
            return None
        return raw

    def contains(self, workload: Any, scale: int) -> bool:
        """Whether valid artifacts for this workload are on disk."""
        return self._manifest(self.directory(workload, scale)) is not None

    # ------------------------------------------------------------------
    def load(self, workload: Any, scale: int) -> Optional[PreparedWorkload]:
        """Rebuild a prepared workload from disk; None when absent/corrupt."""
        directory = self.directory(workload, scale)
        if self._manifest(directory) is None:
            return None
        rule = chaos_fire("artifacts.read")
        if rule is not None and rule.kind == "corrupt":
            self._quarantine(directory, workload.name)
            return None
        try:
            with open(os.path.join(directory, "single.asm"),
                      encoding="utf-8") as handle:
                single = parse_program(handle.read())
            with open(os.path.join(directory, "enlarged.asm"),
                      encoding="utf-8") as handle:
                enlarged = parse_program(handle.read())
            single_trace = load_trace_file(
                os.path.join(directory, "single.trace")
            )
            enlarged_trace = load_trace_file(
                os.path.join(directory, "enlarged.trace")
            )
        except Exception:  # noqa: BLE001 - any corruption means re-prepare
            self._quarantine(directory, workload.name)
            return None
        return PreparedWorkload(
            workload.name, single, enlarged, single_trace, enlarged_trace
        )

    def save(self, workload: Any, scale: int,
             prepared: PreparedWorkload) -> str:
        """Materialize one prepared workload; returns its directory.

        The manifest is written last (atomically), so a partially
        written directory never satisfies a later :meth:`load`.
        """
        directory = self.directory(workload, scale)
        chaos_fire("artifacts.write")
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "single.asm"), "w",
                  encoding="utf-8") as handle:
            handle.write(format_program(prepared.single))
        with open(os.path.join(directory, "enlarged.asm"), "w",
                  encoding="utf-8") as handle:
            handle.write(format_program(prepared.enlarged))
        save_trace_file(prepared.single_trace,
                        os.path.join(directory, "single.trace"))
        save_trace_file(prepared.enlarged_trace,
                        os.path.join(directory, "enlarged.trace"))
        atomic_write_json(os.path.join(directory, _MANIFEST), {
            "artifact_version": ARTIFACT_VERSION,
            "prepare_version": PREPARE_CACHE_VERSION,
            "benchmark": workload.name,
            "scale": scale,
            "digest": workload_digest(workload, scale),
            "files": list(ARTIFACT_FILES),
        })
        return directory

    def ensure(self, workload: Any, scale: int) -> str:
        """Make sure artifacts exist on disk, preparing them if missing.

        Unlike :meth:`load`, the prepared objects are not returned (or
        retained): this is the parent-side step of a parallel sweep,
        which only needs the bytes on disk for pool workers to load.
        """
        directory = self.directory(workload, scale)
        if self._manifest(directory) is not None:
            return directory
        prepared = workload.prepare(scale=scale)
        return self.save(workload, scale, prepared)
