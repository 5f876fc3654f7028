"""In-memory spans for the traced run, and the self time of each layer.

A span is one call into a layer: its name, start and end (host
``perf_counter`` seconds), the span that caused it, and the workload,
program and configuration it served.  Spans stay in memory while the
run measures and are written out once, when it ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Records nested spans; the innermost open span parents new ones."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, program: str = "",
             config: str = "") -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "program": program,
            "config": config,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: str, extra: Dict[str, Any]) -> None:
        document = dict(extra)
        document["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another or stick out of their parent; only
    the union of their intervals inside the parent is subtracted, so a
    self time is never negative and never counts an instant twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span["id"], ())):
            lo = max(lo, cursor)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans: List[Dict[str, Any]],
                 names: Optional[set] = None) -> Dict[str, Tuple[float, int]]:
    """Summed self seconds and call count per span name."""
    totals: Dict[str, Tuple[float, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        if names is not None and span["name"] not in names:
            continue
        seconds, count = totals.get(span["name"], (0.0, 0))
        totals[span["name"]] = (seconds + own, count + 1)
    return totals
