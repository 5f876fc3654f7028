"""Shared helpers for the ablation studies.

Each ablation runs its points through the sweep loop
(``repro.harness.run_sweep``; timing results are cached on disk, see
repro.harness.cache, so re-runs only pay for points not yet measured),
writes its table under ``benchmarks/results/`` and asserts its own
expected shape.  ``repro-sim report`` folds those tables into
EXPERIMENTS.md; the paper's figure claims are checked by the report's
claims table.

``REPRO_CACHE_DIR`` sets the result cache location.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_table(name: str, text: str) -> None:
    """Store a rendered ablation table under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print()
    print(text)
