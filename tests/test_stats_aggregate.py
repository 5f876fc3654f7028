"""Aggregation-helper tests."""

import pytest

from repro.stats import histogram_stats


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
