"""Structured logging with correlation ids for harness and service code.

Diagnostics used to go to stderr as bare ``print`` calls; this module
gives them one shared shape so an operator tailing a daemon (or a log
shipper scraping one) sees a single, greppable stream:

* **Human mode** (the default): ``component: event key=value ...`` --
  one line, stable ordering, no escape codes.
* **JSON mode** (``repro-sim --log-json ...`` or ``REPRO_LOG_JSON=1``):
  one JSON object per line (JSONL), ``{"ts", "level", "component",
  "event", ...fields}`` -- machine-parseable with nothing else mixed in.

Correlation: a logger can :meth:`~StructuredLogger.bind` context fields
(job id, point key, backend) that ride on every record it emits, so a
job's admission, point resolutions and terminal state can be stitched
back together from the stream with one grep.

This is intentionally not :mod:`logging` from the stdlib: the harness
needs exactly one sink (stderr), no level hierarchy surgery, and
records cheap enough to emit from the sweep loop.  The module name
shadows nothing -- absolute imports mean ``import logging`` elsewhere
still finds the stdlib.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, IO, Optional

LEVEL_DEBUG = "debug"
LEVEL_INFO = "info"
LEVEL_WARNING = "warning"
LEVEL_ERROR = "error"

#: Process-wide output mode; flipped once at CLI startup (never per
#: record, so a stream is all-JSONL or all-human, never interleaved).
_JSON_MODE: Optional[bool] = None


def configure(json_mode: Optional[bool] = None) -> bool:
    """Set (or re-derive) the process-wide log format.

    ``json_mode=None`` re-reads the ``REPRO_LOG_JSON`` environment
    variable (any non-empty value except ``0``/``false`` enables JSONL);
    an explicit boolean overrides it.  Returns the effective mode.
    """
    global _JSON_MODE
    if json_mode is None:
        raw = os.environ.get("REPRO_LOG_JSON", "")
        _JSON_MODE = raw.lower() not in ("", "0", "false")
    else:
        _JSON_MODE = bool(json_mode)
    return _JSON_MODE


def json_mode() -> bool:
    """Whether records are emitted as JSONL (lazily reads the env)."""
    if _JSON_MODE is None:
        return configure(None)
    return _JSON_MODE


def _render_value(value: Any) -> str:
    """Human-mode value rendering: compact, quote only when needed."""
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if " " in text or text == "":
        return json.dumps(text)
    return text


class StructuredLogger:
    """One named emitter of structured records (see module docstring)."""

    __slots__ = ("component", "context", "_stream")

    def __init__(self, component: str,
                 context: Optional[Dict[str, Any]] = None,
                 stream: Optional[IO[str]] = None):
        self.component = component
        self.context = dict(context) if context else {}
        #: None means "sys.stderr at emit time", so pytest's capture and
        #: daemon redirection both see records without re-plumbing.
        self._stream = stream

    def bind(self, **fields: Any) -> "StructuredLogger":
        """A child logger whose records all carry ``fields``."""
        merged = dict(self.context)
        merged.update(fields)
        return StructuredLogger(self.component, merged, self._stream)

    # ------------------------------------------------------------------
    def log(self, level: str, event: str, **fields: Any) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        if json_mode():
            record: Dict[str, Any] = {
                "ts": round(time.time(), 6),
                "level": level,
                "component": self.component,
                "event": event,
            }
            record.update(self.context)
            record.update(fields)
            line = json.dumps(record, separators=(",", ":"),
                              default=str)
        else:
            parts = [f"{self.component}: {event}"]
            for name, value in {**self.context, **fields}.items():
                parts.append(f"{name}={_render_value(value)}")
            if level in (LEVEL_WARNING, LEVEL_ERROR):
                parts.insert(0, level.upper())
            line = " ".join(parts)
        try:
            stream.write(line + "\n")
            stream.flush()
        except (OSError, ValueError):
            pass  # a closed stderr must never take the sweep down

    def debug(self, event: str, **fields: Any) -> None:
        self.log(LEVEL_DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log(LEVEL_INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log(LEVEL_WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log(LEVEL_ERROR, event, **fields)


def get_logger(component: str, **context: Any) -> StructuredLogger:
    """A logger for one component, optionally with bound context."""
    return StructuredLogger(component, context or None)
