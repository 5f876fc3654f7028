"""Workload definition and preparation plumbing.

Preparing a workload (compile, profile on training input, enlarge, trace
on evaluation input) costs seconds per benchmark; :func:`prepared`
therefore caches the result in-process and delegates on-disk persistence
to the versioned artifact store (:mod:`repro.harness.artifacts`), keyed
by a digest of the source and inputs so stale artifacts can never be
reused.  :func:`ensure_artifacts` materializes the on-disk form without
loading it -- the parent side of a parallel sweep, whose pool workers
load the artifacts themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..chaos.inject import current as chaos_current
from ..enlarge.plan import EnlargeConfig
from ..lang.frontend import compile_source
from ..machine.simulator import PreparedWorkload, prepare_workload
from ..program.program import Program
from ..telemetry.collector import Collector, NULL_COLLECTOR
from ..telemetry.logging import get_logger

_LOG = get_logger("workloads")

#: fd -> byte stream
Inputs = Mapping[int, bytes]


@dataclass(frozen=True)
class Workload:
    """One benchmark: Mini-C source, input generators and an oracle.

    Attributes:
        name: short benchmark name (``sort``, ``grep``, ...).
        source: Mini-C translation unit implementing the utility.
        make_inputs: ``(kind, scale) -> Inputs`` where kind is ``train``
            or ``eval``; scale grows the input proportionally.
        reference: Python oracle computing the expected fd-1 output for a
            given input set (used by the test suite, not the simulator).
        cache_memories: memory letters this workload's cache-geometry
            sweep should visit; empty means the default ladder
            (:data:`repro.machine.config.CACHE_SWEEP_MEMORIES`).
    """

    name: str
    source: str
    make_inputs: Callable[[str, int], Inputs]
    reference: Callable[[Inputs], bytes]
    cache_memories: Tuple[str, ...] = ()

    def compile(self) -> Program:
        """Compile the benchmark's Mini-C source."""
        return compile_source(self.source)

    def prepare(self, scale: int = 1,
                enlarge_config: Optional[EnlargeConfig] = None,
                max_nodes: int = 200_000_000) -> PreparedWorkload:
        """Compile, profile (train input), enlarge and trace (eval input)."""
        program = self.compile()
        return prepare_workload(
            self.name,
            program,
            self.make_inputs("train", scale),
            self.make_inputs("eval", scale),
            enlarge_config=enlarge_config,
            max_nodes=max_nodes,
        )


_PREPARED_CACHE: Dict[tuple, PreparedWorkload] = {}


def prepared(workload: Workload, scale: int = 1,
             collector: Collector = NULL_COLLECTOR) -> PreparedWorkload:
    """Cached workload preparation (in-process, then on-disk, then fresh).

    Only the default enlargement configuration is cached; custom configs
    go through :meth:`Workload.prepare` directly.
    """
    # Imported lazily: repro.harness imports the workload registry at
    # package level, so the reverse import must happen at call time.
    from ..harness.artifacts import ArtifactStore

    key = (workload.name, scale)
    hit = _PREPARED_CACHE.get(key)
    if hit is not None:
        return hit

    store = ArtifactStore(collector=collector)
    loaded = store.load(workload, scale)
    if loaded is None:
        loaded = workload.prepare(scale=scale)
        try:
            store.save(workload, scale, loaded)
        except OSError as exc:
            # The prepared workload is in memory and fully usable; a
            # failed persist costs a re-prepare next process, not this
            # point.
            _LOG.warning("artifact_save_failed", benchmark=workload.name,
                         scale=scale,
                         error=f"{type(exc).__name__}: {exc}")
            collector.count("artifacts.write_error")
            eng = chaos_current()
            if eng is not None:
                eng.mark_recovered("artifacts.write")
    _PREPARED_CACHE[key] = loaded
    return loaded


def clear_prepared_cache() -> None:
    """Drop the in-process prepared-workload cache.

    The on-disk artifact store is untouched; the next :func:`prepared`
    call reloads from it.  Used by the chaos drill, so each arm starts
    from the same cold in-process state.
    """
    _PREPARED_CACHE.clear()


def ensure_artifacts(workload: Workload, scale: int = 1) -> str:
    """Materialize a workload's on-disk artifacts without loading them.

    Returns the artifact directory.  This is the prepare step a parallel
    sweep runs in the parent, once per benchmark, before dispatching the
    benchmark's points to pool workers.
    """
    from ..harness.artifacts import ArtifactStore

    return ArtifactStore().ensure(workload, scale)
