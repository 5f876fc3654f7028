"""Statistics containers and aggregation helpers."""

from .aggregate import (
    TELEMETRY_SCHEMA,
    histogram_stats,
    schedule_summary,
    telemetry_report,
)
from .results import SimResult

__all__ = [
    "SimResult",
    "TELEMETRY_SCHEMA",
    "histogram_stats",
    "schedule_summary",
    "telemetry_report",
]
