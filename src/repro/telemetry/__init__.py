"""Observability subsystem: counters, histograms, per-cycle pipeline traces.

See DESIGN.md section "Observability" for the collector API, the
event/counter naming scheme, and the ``telemetry.json`` schema, and
section "Profiling & metrics" for phase times, cycle attribution and
the Prometheus exposition.
"""

from .collector import (
    ATTRIBUTION_BUCKETS,
    Collector,
    EVENT_NAMES,
    MetricsCollector,
    NULL_COLLECTOR,
    TID_ALU,
    TID_CONTROL,
    TID_MEM,
    TraceCollector,
)
from .export import (
    chrome_trace,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)
from .logging import StructuredLogger, get_logger
from .progress import ProgressLine

__all__ = [
    "ATTRIBUTION_BUCKETS",
    "Collector",
    "EVENT_NAMES",
    "MetricsCollector",
    "NULL_COLLECTOR",
    "TID_ALU",
    "TID_CONTROL",
    "TID_MEM",
    "TraceCollector",
    "chrome_trace",
    "jsonl_lines",
    "write_chrome_trace",
    "write_jsonl",
    "StructuredLogger",
    "get_logger",
    "ProgressLine",
]
