"""On-disk cache of simulation results.

A full reproduction is 2800 timing runs (560 configurations x 5
benchmarks); caching lets the figure harnesses accumulate results across
invocations and lets a re-run of a bench skip everything it has already
measured.  Results are stored as one JSON object per (benchmark, config,
scale) key.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from typing import Any, Dict, Optional, Tuple

from ..chaos.inject import fire as chaos_fire, recovered as chaos_recovered
from ..machine.config import MachineConfig
from ..stats.results import SimResult
from ..telemetry.collector import Collector, NULL_COLLECTOR
from ..telemetry.logging import get_logger

#: Bump when simulator behaviour changes enough to invalidate old results.
CACHE_VERSION = 7

_LOG = get_logger("cache")


def _create_temp(directory: str, basename: str) -> Tuple[int, str]:
    """Create a new, uniquely named temp file beside ``basename``.

    Unlike ``tempfile.mkstemp`` (always mode 0600) the file is created
    with mode 0666 less the umask, like any file ``open`` creates, so the
    ``os.replace`` that publishes it leaves it readable to whoever the
    umask allows -- a result cache shared between accounts stays shared.
    """
    while True:
        tmp_path = os.path.join(
            directory, f"{basename}.{secrets.token_hex(6)}.tmp")
        try:
            return os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o666), tmp_path
        except FileExistsError:
            continue


def atomic_write_text(path: str, text: str) -> None:
    """Crash-safe text write: unique temp file, fsync, ``os.replace``.

    A killed writer can never leave a truncated file at ``path`` -- the
    old contents stay until the fully flushed replacement is renamed
    into place -- and the unique temp name keeps concurrent writers
    (e.g. two sweeps sharing a cache directory) from trampling each
    other's in-flight data.  A failed write removes its temp file.

    After the replace the containing directory is fsynced (best effort:
    not every filesystem allows opening a directory) so the rename itself
    survives a power cut, not just the file contents.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = _create_temp(directory, os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_json(path: str, payload: Any,
                      indent: Optional[int] = None,
                      sort_keys: bool = False) -> None:
    """:func:`atomic_write_text` of ``payload`` encoded as JSON.

    ``indent`` is forwarded to ``json.dumps`` for documents meant to be
    committed and diffed (golden baselines), which also end in a
    newline; ``sort_keys`` pins byte layout independent of insertion
    order.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    if indent is not None:
        text += "\n"
    atomic_write_text(path, text)


def quarantine_path(directory: str, name: str, ext: str = "") -> str:
    """A free path for ``name`` in ``directory``'s ``.quarantine/`` pen.

    Corrupt files are moved or copied there for post-mortem instead of
    being deleted.  A name already taken gets a numbered suffix before
    ``ext``: ``name``, ``name.1``, ``name.2``, ...  Creates the pen;
    raises ``OSError`` when it cannot.
    """
    pen = os.path.join(directory, ".quarantine")
    os.makedirs(pen, exist_ok=True)
    target = os.path.join(pen, name + ext)
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = os.path.join(pen, f"{name}.{suffix}{ext}")
    return target


_RESULT_FIELDS = (
    "cycles",
    "retired_nodes",
    "discarded_nodes",
    "dynamic_blocks",
    "mispredicts",
    "branch_lookups",
    "faults",
    "loads",
    "stores",
    "cache_accesses",
    "cache_misses",
    "write_buffer_hits",
    "issue_words",
    "issued_slots",
    "window_block_cycles",
    "window_samples",
    "work_nodes",
)

#: Value-speculation counters: written only for points simulated with a
#: value predictor and decoded with a zero default, so paper-grid
#: entries (``value_predictor="none"``) keep their pre-speculation byte
#: layout and pre-existing caches stay valid verbatim.
_VALUE_FIELDS = (
    "value_predictions",
    "value_confirmed",
    "value_squashed",
    "value_replays",
)


def result_key(benchmark: str, config: MachineConfig, scale: int) -> str:
    """Stable cache key for one simulation point.

    The ``|v...`` value-predictor and ``|opt`` optimal-schedule suffixes
    appear only when those axes are active: every pre-existing key (and
    committed baseline) for default-axis points stays byte-identical.
    """
    key = (
        f"v{CACHE_VERSION}|{benchmark}|{scale}|{config.discipline.value}"
        f"|w{config.window_blocks}|i{config.issue_model}|m{config.memory}"
        f"|{config.branch_mode.value}|h{int(config.static_hints)}"
        f"|p{config.predictor}"
    )
    if config.value_predictor != "none":
        key += f"|v{config.value_predictor}"
    if config.optimal_schedule:
        key += "|opt"
    return key


class ResultCache:
    """JSON-file-backed result store.

    An entry is decoded on its first read and later hits return that
    same :class:`SimResult`, so nothing may mutate what it hands out.
    """

    def __init__(self, path: Optional[str] = None,
                 collector: Collector = NULL_COLLECTOR):
        if path is None:
            root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
            path = os.path.join(root, "results.json")
        self.path = path
        self.collector = collector
        self._data: Dict[str, dict] = {}
        self._decoded: Dict[str, SimResult] = {}
        self._loaded = False
        self._dirty = 0
        self._write_failed = False

    # ------------------------------------------------------------------
    def _quarantine_file(self) -> None:
        """Move a corrupt cache file aside for post-mortem, don't delete."""
        try:
            target = quarantine_path(os.path.dirname(self.path) or ".",
                                     os.path.basename(self.path))
            os.replace(self.path, target)
        except OSError:
            return
        self.collector.count("cache.quarantined")
        _LOG.warning("cache_file_quarantined", path=self.path, moved_to=target)
        chaos_recovered("cache.read")

    def _quarantine_entry(self, key: str, raw: Any) -> None:
        """Preserve a corrupt cache entry in a sidecar before dropping it."""
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()[:12]
        try:
            target = quarantine_path(os.path.dirname(self.path) or ".",
                                     f"entry-{digest}", ".json")
            atomic_write_json(target, {"key": key, "raw": raw}, indent=2)
        except OSError:
            return
        self.collector.count("cache.quarantined")
        _LOG.warning("cache_entry_quarantined", key=key, moved_to=target)
        chaos_recovered("cache.read")

    # ------------------------------------------------------------------
    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError:
            self._data = {}
            return
        except ValueError:
            # A truncated or garbled cache file: quarantine it for
            # post-mortem and start fresh rather than failing the sweep.
            self.collector.count("cache.corrupt")
            self._quarantine_file()
            self._data = {}
            return
        if isinstance(data, dict):
            self._data = data
        else:
            self.collector.count("cache.corrupt")
            self._quarantine_file()
            self._data = {}

    def get(self, benchmark: str, config: MachineConfig, scale: int,
            key: Optional[str] = None) -> Optional[SimResult]:
        """Fetch a cached result, decoding its entry on the first read.

        ``key`` is the point's :func:`result_key`, passed by callers that
        already hold it; without it the key is formatted here.

        A corrupted entry (wrong shape, missing fields -- e.g. written by
        an older code version or truncated on disk) is quarantined into a
        ``.quarantine/`` sidecar, dropped from the live cache, and counted
        under ``cache.corrupt``, so the caller transparently recomputes
        instead of crashing.
        """
        self._load()
        if key is None:
            key = result_key(benchmark, config, scale)
        raw = self._data.get(key)
        if raw is None:
            return None
        rule = chaos_fire("cache.read")
        if rule is not None and rule.kind == "corrupt":
            raw = {"_chaos": "corrupted entry"}
        else:
            result = self._decoded.get(key)
            if result is not None:
                return result
        try:
            result = SimResult(
                benchmark=benchmark,
                config=config,
                **{field: raw[field] for field in _RESULT_FIELDS},
                **{field: raw.get(field, 0) for field in _VALUE_FIELDS},
            )
        except (KeyError, TypeError):
            self.collector.count("cache.corrupt")
            self._quarantine_entry(key, raw)
            del self._data[key]
            self._decoded.pop(key, None)
            self._dirty += 1
            return None
        self._decoded[key] = result
        return result

    def put(self, result: SimResult, scale: int) -> None:
        """Store a result and flush to disk."""
        self._load()
        key = result_key(result.benchmark, result.config, scale)
        entry = {field: getattr(result, field) for field in _RESULT_FIELDS}
        if result.config.value_predictor != "none":
            for field in _VALUE_FIELDS:
                entry[field] = getattr(result, field)
        self._data[key] = entry
        # The stored entry drops ``extra``: the next read decodes it.
        self._decoded.pop(key, None)
        self._dirty += 1
        self.flush()

    def flush(self) -> None:
        """Persist dirty entries via a crash-safe atomic replace.

        On a write failure the dirty count is retained so the next put or
        terminal flush retries; keys are sorted so the byte layout is
        independent of insertion order (quarantined-then-recomputed
        entries land at the same offsets as never-corrupted ones).
        """
        if not self._dirty:
            return
        try:
            chaos_fire("cache.write")
            atomic_write_json(self.path, self._data, sort_keys=True)
        except OSError as exc:
            self._write_failed = True
            _LOG.warning("cache_flush_failed", path=self.path,
                         error=f"{type(exc).__name__}: {exc}")
            raise
        if self._write_failed:
            self._write_failed = False
            _LOG.info("cache_flush_recovered", path=self.path)
            chaos_recovered("cache.write")
        self._dirty = 0

    def __len__(self) -> int:
        self._load()
        return len(self._data)
