"""Host block: what machine the numbers come from, and a speed yardstick."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Any, Dict

#: Iterations of the calibration loop per timing.
CALIB_ITERATIONS = 400_000


def _calib_loop(iterations: int) -> int:
    acc = 0
    table = [3, 1, 4, 1, 5, 9, 2, 6]
    for i in range(iterations):
        acc = (acc + table[i & 7] * i) & 0xFFFF
    return acc


def calib_ns(repeats: int = 7) -> float:
    """ns per iteration of a fixed pure-Python loop (median of repeats).

    Engine ns/node figures divided by this survive a change of host
    better than raw ones: both are pure-Python interpreter work.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calib_loop(CALIB_ITERATIONS)
        samples.append((time.perf_counter() - start) / CALIB_ITERATIONS)
    return statistics.median(samples) * 1e9


def host_info() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
    }
