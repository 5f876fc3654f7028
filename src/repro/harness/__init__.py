"""Experiment harness: sweeps, caching, figure data, reporting.

Fault tolerance (see DESIGN.md "Fault tolerance"): points run through
:class:`PointExecutor` degrade to structured :class:`PointFailure`
records instead of aborting a sweep; :class:`SweepCheckpoint` makes
killed sweeps resumable.

Parallel execution (see DESIGN.md "Parallel execution"): sweeps run
through an :class:`ExecutionBackend` -- :class:`SerialBackend` in
process, or :class:`ProcessPoolBackend` under ``--jobs N``, which loads
prepared workloads from the versioned :class:`ArtifactStore` and mails
results back to the parent, the single writer of cache, checkpoint and
telemetry.  Every point, a report's and a single ``run``'s included,
goes through the one loop in :func:`run_sweep`.
"""

from .artifacts import ArtifactStore, default_artifact_root, workload_digest
from .backend import (
    ExecutionBackend,
    PointOutcome,
    PointTask,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from .cache import ResultCache, atomic_write_json
from .checkpoint import SweepCheckpoint, default_checkpoint_path
from .errors import (
    EngineDivergence,
    FAILURE_KINDS,
    HarnessError,
    PointFailure,
    PointTimeout,
    SimulationHang,
    TransientSimulationError,
    WorkloadPrepareError,
    classify_error,
    is_transient,
)
from .executor import ExecutionPolicy, PointExecutor
from .figures import (
    discipline_lines,
    figure2_data,
    figure3_data,
    figure4_data,
    figure5_data,
    figure6_data,
    render_series_table,
    static_ratio_data,
)
from .plot import ascii_chart
from .report import generate_report
from .runner import SweepRunner, default_benchmarks, default_scale, geometric_mean
from .sweep import SweepTally, grid_tasks, run_sweep

__all__ = [
    "ArtifactStore",
    "EngineDivergence",
    "ExecutionBackend",
    "ExecutionPolicy",
    "FAILURE_KINDS",
    "HarnessError",
    "PointExecutor",
    "PointFailure",
    "PointOutcome",
    "PointTask",
    "PointTimeout",
    "ProcessPoolBackend",
    "ResultCache",
    "SerialBackend",
    "SimulationHang",
    "SweepCheckpoint",
    "SweepRunner",
    "SweepTally",
    "TransientSimulationError",
    "WorkloadPrepareError",
    "atomic_write_json",
    "classify_error",
    "default_artifact_root",
    "default_checkpoint_path",
    "is_transient",
    "default_benchmarks",
    "default_scale",
    "grid_tasks",
    "make_backend",
    "run_sweep",
    "workload_digest",
    "discipline_lines",
    "figure2_data",
    "figure3_data",
    "figure4_data",
    "figure5_data",
    "figure6_data",
    "ascii_chart",
    "generate_report",
    "geometric_mean",
    "render_series_table",
    "static_ratio_data",
]
