"""Aggregation-helper tests."""

import pytest

from repro.machine.config import BranchMode, Discipline, MachineConfig
from repro.stats import (
    SimResult,
    geometric_mean_ipc,
    histogram_stats,
    mean_redundancy,
)


def result(benchmark="b", discipline=Discipline.DYNAMIC, window=4,
           mode=BranchMode.SINGLE, cycles=1000, retired=4000, discarded=0):
    config = MachineConfig(
        discipline=discipline,
        issue_model=8,
        memory="A",
        branch_mode=mode,
        window_blocks=window,
    )
    return SimResult(
        benchmark=benchmark,
        config=config,
        cycles=cycles,
        retired_nodes=retired,
        discarded_nodes=discarded,
        dynamic_blocks=100,
        branch_lookups=200,
        mispredicts=20,
        cache_accesses=1000,
        cache_misses=50,
        work_nodes=retired,
    )


class TestMeans:
    def test_geometric_mean_ipc(self):
        results = [result(cycles=1000, retired=2000),
                   result(cycles=1000, retired=8000)]
        assert geometric_mean_ipc(results) == pytest.approx(4.0)

    def test_empty_inputs(self):
        assert geometric_mean_ipc([]) == 0.0
        assert mean_redundancy([]) == 0.0

    def test_mean_redundancy(self):
        results = [result(discarded=1000, retired=4000),
                   result(discarded=0, retired=4000)]
        assert mean_redundancy(results) == pytest.approx(0.1)

    def test_all_zero_ipc_is_floored_not_nan(self):
        # A fully degraded batch (every point at zero cycles/IPC) must
        # come back as a small finite float, never a NaN or a raise.
        results = [result(cycles=0), result(cycles=0)]
        mean = geometric_mean_ipc(results)
        assert mean == pytest.approx(1e-12)
        assert mean == mean  # not NaN

    def test_single_result_is_identity(self):
        only = result(cycles=1000, retired=3000)
        assert geometric_mean_ipc([only]) == pytest.approx(3.0)
        assert mean_redundancy([only]) == pytest.approx(only.redundancy)


class TestHistogramStats:
    def test_empty_distribution(self):
        assert histogram_stats([]) == {"count": 0}

    def test_single_value(self):
        stats = histogram_stats([2.5])
        assert stats["count"] == 1
        assert stats["min"] == stats["max"] == stats["mean"] == 2.5
        assert stats["p50"] == stats["p90"] == 2.5

    def test_percentiles_stay_in_range(self):
        stats = histogram_stats([5.0, 1.0, 3.0, 4.0, 2.0])
        assert stats["min"] == 1.0
        assert stats["max"] == 5.0
        assert stats["mean"] == pytest.approx(3.0)
        assert stats["min"] <= stats["p50"] <= stats["p90"] <= stats["max"]

    def test_all_zero_values(self):
        stats = histogram_stats([0.0, 0.0, 0.0])
        assert stats["count"] == 3
        assert stats["mean"] == 0.0
        assert stats["p90"] == 0.0
