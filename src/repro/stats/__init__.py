"""Statistics containers and aggregation helpers."""

from .aggregate import (
    TELEMETRY_SCHEMA,
    geometric_mean_ipc,
    histogram_stats,
    mean_redundancy,
    schedule_summary,
    telemetry_report,
)
from .results import SimResult

__all__ = [
    "SimResult",
    "TELEMETRY_SCHEMA",
    "geometric_mean_ipc",
    "histogram_stats",
    "mean_redundancy",
    "schedule_summary",
    "telemetry_report",
]
