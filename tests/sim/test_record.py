"""Unit tests for SeriesStats and percentile."""

import math

import pytest

from repro.sim import SeriesStats
from repro.sim.record import percentile


def test_series_stats_basic():
    s = SeriesStats()
    s.extend([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.variance == pytest.approx(5.0 / 3.0)
    assert s.min == 1.0
    assert s.max == 4.0


def test_series_stats_single_sample():
    s = SeriesStats()
    s.add(7.0)
    assert s.mean == 7.0
    assert s.variance == 0.0
    assert s.stdev == 0.0


def test_series_stats_empty_summary():
    s = SeriesStats()
    summ = s.summary()
    assert summ["count"] == 0
    assert math.isnan(summ["min"])


def test_series_stats_matches_numpy():
    import numpy as np

    rng = np.random.default_rng(42)
    xs = rng.normal(10.0, 3.0, size=1000)
    s = SeriesStats()
    s.extend(xs)
    assert s.mean == pytest.approx(float(np.mean(xs)))
    assert s.stdev == pytest.approx(float(np.std(xs, ddof=1)))


def test_percentile_nearest_rank():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 99) == 5.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
