"""Long-running simulation service: daemon, job queue, HTTP API, client.

The batch entry point (``sweep``) pays the
expensive half of every run -- compiling, profiling, enlarging and
tracing workloads -- on each invocation, and throws the warm state away
on exit.  The service keeps all of it resident: prepared workloads stay
in the in-process cache, the result cache stays loaded, and (under
``--jobs N``) the worker pool stays up, so overlapping grid queries are
served at cache-hit speed after the first request.

Layers (see DESIGN.md "Service layer"):

* :mod:`~repro.service.jobs` -- typed :class:`SweepJob` records, each
  holding its event stream, with deterministic ids derived from
  result-cache keys, job states, and the JSONL job journal that
  survives daemon restarts;
* :mod:`~repro.service.scheduler` -- FIFO :class:`JobScheduler` fanning
  job points onto an :class:`~repro.harness.backend.ExecutionBackend`,
  each job as one run of the batch sweep loop, with admission control
  (typed :class:`AdmissionError` rejections) and cancellation;
* :mod:`~repro.service.http_api` -- a stdlib-only HTTP front end
  (``http.server``): submit, status, long-poll events, health, metrics;
* :mod:`~repro.service.client` -- the :class:`ServiceClient` used by
  the ``repro-sim serve`` / ``repro-sim submit`` CLI verbs and tests.
"""

from .jobs import (
    GridSpec,
    JOB_STATES,
    JobJournal,
    SpecError,
    SweepJob,
    TERMINAL_STATES,
)
from .scheduler import AdmissionError, JobScheduler, UnknownJobError
from .client import (
    AdmissionRejected,
    JobFailed,
    JobNotFound,
    ServiceClient,
    ServiceError,
)
from .http_api import ServiceServer, make_server

__all__ = [
    "AdmissionError",
    "AdmissionRejected",
    "GridSpec",
    "JOB_STATES",
    "JobFailed",
    "JobJournal",
    "JobNotFound",
    "JobScheduler",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SpecError",
    "SweepJob",
    "TERMINAL_STATES",
    "UnknownJobError",
    "make_server",
]
