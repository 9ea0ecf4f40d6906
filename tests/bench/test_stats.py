"""Latency statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.bench import LatencyStats, percentile


def test_percentile_basics():
    s = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(s, 0) == 1.0
    assert percentile(s, 50) == 3.0
    assert percentile(s, 100) == 5.0
    assert percentile(s, 99) == 5.0


def test_percentile_unsorted_input():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


def test_latency_stats_accumulation():
    st_ = LatencyStats()
    for v in (3.0, 1.0, 2.0):
        st_.record(v)
    assert st_.count == 3
    assert st_.mean == pytest.approx(2.0)
    assert st_.min == 1.0 and st_.max == 3.0
    assert st_.p50 == 2.0


def test_empty_accessors_raise_uniformly():
    empty = LatencyStats()
    for attr in ("mean", "min", "max"):
        with pytest.raises(ValueError, match="no samples"):
            getattr(empty, attr)


@given(st.lists(st.floats(0.001, 1000), min_size=1, max_size=200))
def test_percentile_bounds_and_monotone(samples):
    lo = percentile(samples, 0)
    hi = percentile(samples, 100)
    assert min(samples) == lo
    assert max(samples) == hi
    prev = lo
    for p in (10, 25, 50, 75, 90, 99):
        cur = percentile(samples, p)
        assert cur >= prev
        prev = cur


@given(st.lists(st.floats(0.001, 1000), min_size=1, max_size=100))
def test_mean_within_minmax(samples):
    s = LatencyStats(list(samples))
    eps = 1e-9 * max(samples)  # float summation slack
    assert s.min - eps <= s.mean <= s.max + eps
