"""Structured error taxonomy for fault-tolerant sweep execution.

Every way a sweep point can fail maps to one typed error with a stable
``kind`` string, so failures can be recorded, counted, serialised into
``telemetry.json`` / ``sweep.state.json``, and reasoned about on resume:

========================  =====================================================
kind                      raised when
========================  =====================================================
``hang``                  an engine's ``max_cycles`` watchdog fired
``divergence``            engine accounting diverged from the functional trace
``timeout``               the executor's wall-clock limit expired
``prepare``               workload preparation (compile/profile/enlarge/trace)
                          failed, including ``WorkloadMismatch``
``transient``             an explicitly retryable failure (I/O glitches, the
                          test suite's injected flakes)
``worker-crash``          a pool worker process died without reporting
``unexpected``            anything else -- degraded, recorded, not fatal
========================  =====================================================

The engine-level types (:class:`SimulationHang`,
:class:`EngineDivergence`) live in :mod:`repro.machine.errors` so the
machine layer never imports upward; this module re-exports them as the
canonical import point for the whole taxonomy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict

from ..chaos.inject import ChaosCrash
from ..machine.errors import (  # noqa: F401  (re-exported taxonomy members)
    EngineDivergence,
    SimulationError,
    SimulationHang,
)
from ..machine.simulator import WorkloadMismatch


class HarnessError(Exception):
    """Base class for failures raised by the sweep harness itself."""


class PointTimeout(HarnessError):
    """A sweep point exceeded the executor's wall-clock budget."""

    def __init__(self, benchmark: str, config: str, timeout_s: float):
        self.benchmark = benchmark
        self.config = config
        self.timeout_s = timeout_s
        super().__init__(
            f"{benchmark} on {config}: no result within {timeout_s:g}s"
        )


class WorkloadPrepareError(HarnessError):
    """Workload preparation failed (compile, profile, enlarge or trace).

    Wraps the underlying cause (``WorkloadMismatch``, a compiler error,
    a corrupted on-disk artefact, ...) so prepare-stage failures are
    never mistaken for simulation failures.
    """

    def __init__(self, benchmark: str, cause: BaseException):
        self.benchmark = benchmark
        self.cause = cause
        super().__init__(
            f"preparing workload {benchmark!r} failed: "
            f"{type(cause).__name__}: {cause}"
        )


class TransientSimulationError(HarnessError):
    """A retryable failure: the executor backs off and tries again."""


#: error kind -> exception classes, checked in order (first match wins).
_KIND_TABLE = (
    ("hang", (SimulationHang,)),
    ("divergence", (EngineDivergence,)),
    ("timeout", (PointTimeout,)),
    ("prepare", (WorkloadPrepareError, WorkloadMismatch)),
    ("transient", (TransientSimulationError,)),
    ("worker-crash", (ChaosCrash,)),
)

#: the closed vocabulary of failure kinds (plus the fallback).
FAILURE_KINDS = tuple(kind for kind, _ in _KIND_TABLE) + ("unexpected",)


def classify_error(exc: BaseException) -> str:
    """The stable ``kind`` string for one failure."""
    for kind, classes in _KIND_TABLE:
        if isinstance(exc, classes):
            return kind
    return "unexpected"


def is_transient(exc: BaseException) -> bool:
    """Whether the executor should retry this failure with backoff.

    Explicitly marked transients and OS-level I/O errors are worth a
    retry; hangs, timeouts and semantic errors (divergence, prepare
    bugs) deterministically recur, so retrying them only burns time.
    """
    if isinstance(exc, WorkloadPrepareError):
        # The wrapper hides the cause's class; an I/O flake during
        # preparation is just as retryable as one during simulation.
        return is_transient(exc.cause)
    return isinstance(exc, (TransientSimulationError, ChaosCrash, OSError))


@dataclass
class PointFailure:
    """One failed sweep point, recorded instead of aborting the sweep."""

    benchmark: str
    config: str
    kind: str
    message: str
    attempts: int = 1
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (telemetry.json, sweep.state.json)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "PointFailure":
        return cls(
            benchmark=str(raw.get("benchmark", "")),
            config=str(raw.get("config", "")),
            kind=str(raw.get("kind", "unexpected")),
            message=str(raw.get("message", "")),
            attempts=int(raw.get("attempts", 1)),
            elapsed_s=float(raw.get("elapsed_s", 0.0)),
        )

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.benchmark} {self.config}: {self.kind} "
            f"after {self.attempts} attempt(s) -- {self.message}"
        )
