"""The runtime side of chaos: a seeded engine behind named injection sites.

Each site is one call: :func:`fire` at an injection site, :func:`recovered`
on a recovery path.  With chaos disabled — the overwhelmingly common case —
either costs a function call, a single global load and a None check,
mirroring the telemetry null-object discipline (guarded by the tripwire
test in tests/test_chaos.py).

This module imports only the stdlib and ``telemetry.logging`` so that the
machine engines and the harness error taxonomy can depend on it without
import cycles.  In particular :class:`ChaosCrash` cannot subclass the
harness's TransientSimulationError; harness.errors instead lists it
explicitly in its transient set and its worker-crash classification row.
"""
from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional

from ..telemetry.logging import get_logger
from .plan import FaultPlan, FaultRule

_LOG = get_logger("chaos")


class ChaosError(Exception):
    """Base class for injected chaos failures."""


class ChaosIOError(OSError):
    """An injected filesystem error (ENOSPC, EIO, ...).

    Subclasses OSError so every existing OSError-tolerant path — and the
    `is_transient` retry predicate — treats it exactly like the real thing.
    """


class ChaosCrash(ChaosError):
    """An injected worker crash mid-point (classified as worker-crash)."""


class ChaosEngine:
    """Seeded fault injector: counts per-site hits, fires matching rules.

    Thread-safety: sites are hit from the scheduler thread, HTTP handler
    threads and executor timeout threads concurrently, so all mutable
    state lives under one lock.  The engine keeps its own injected /
    recovered counters instead of writing to the shared telemetry
    collector (which is single-writer); the chaos harness merges them
    into the collector after an arm completes.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.site_hits: Dict[str, int] = {}
        self.injected: Dict[str, int] = {}
        self.recovered: Dict[str, int] = {}
        self._rule_injections: List[int] = [0] * len(plan.rules)
        self._lock = threading.Lock()

    # -- matching ------------------------------------------------------
    def _match(self, site: str) -> Optional[FaultRule]:
        with self._lock:
            hit = self.site_hits.get(site, 0) + 1
            self.site_hits[site] = hit
            for index, rule in enumerate(self.plan.rules):
                if rule.site != site:
                    continue
                if self._rule_injections[index] >= rule.limit():
                    continue
                fires = hit in rule.hits
                if not fires and rule.p:
                    fires = self.rng.random() < rule.p
                if not fires:
                    continue
                self._rule_injections[index] += 1
                key = f"{site}/{rule.kind}"
                self.injected[key] = self.injected.get(key, 0) + 1
                _LOG.warning("chaos_injected", site=site, kind=rule.kind,
                             hit=hit)
                return rule
        return None

    # -- the site API --------------------------------------------------
    def act(self, site: str) -> Optional[FaultRule]:
        """Fire at `site` if a rule matches; return the rule for kinds the
        caller must enact itself (corrupt, torn-write, budget, http-*)."""
        rule = self._match(site)
        if rule is None:
            return None
        if rule.kind in ("delay", "hang"):
            time.sleep(rule.delay_s)
        elif rule.kind == "io-error":
            raise ChaosIOError(
                rule.errno_value(),
                f"chaos: injected {rule.errno_name} at {site}",
            )
        elif rule.kind == "crash":
            raise ChaosCrash(f"chaos: injected worker crash at {site}")
        return rule

    def mark_recovered(self, path: str) -> None:
        """Record that a recovery path absorbed an injected fault."""
        with self._lock:
            self.recovered[path] = self.recovered.get(path, 0) + 1


_ENGINE: Optional[ChaosEngine] = None


def current() -> Optional[ChaosEngine]:
    """The active engine, or None (the common, zero-cost case)."""
    return _ENGINE


def fire(site: str) -> Optional[FaultRule]:
    """:meth:`ChaosEngine.act` on the active engine; None when disabled."""
    engine = _ENGINE
    return None if engine is None else engine.act(site)


def recovered(path: str) -> None:
    """:meth:`ChaosEngine.mark_recovered` on the active engine, if any."""
    engine = _ENGINE
    if engine is not None:
        engine.mark_recovered(path)


def activate(engine: ChaosEngine) -> None:
    global _ENGINE
    if _ENGINE is not None:
        raise RuntimeError("a chaos engine is already active")
    _ENGINE = engine


def deactivate() -> None:
    global _ENGINE
    _ENGINE = None
