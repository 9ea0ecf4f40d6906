"""Property tests: histogram bucket correctness vs exact statistics."""

import math

from hypothesis import given, settings, strategies as st

from repro.bench.stats import percentile as exact_percentile
from repro.obs.metrics import Histogram

samples_st = st.lists(st.floats(1e-8, 1e3, allow_nan=False,
                                allow_infinity=False),
                      min_size=1, max_size=200)


@given(samples_st, st.sampled_from([50, 90, 95, 99]))
@settings(max_examples=100)
def test_percentile_within_one_bucket_of_exact(samples, p):
    """Reported percentile q satisfies exact <= q <= exact * GROWTH."""
    h = Histogram("h", lowest=1e-9)
    for v in samples:
        h.record(v)
    exact = exact_percentile(samples, p)
    reported = h.percentile(p)
    # Never an underestimate beyond float slop; at most one bucket over
    # (the clamp to max_value can only tighten the upper side).
    assert reported >= exact * (1 - 1e-9)
    assert reported <= exact * Histogram.GROWTH * (1 + 1e-9)


@given(samples_st)
@settings(max_examples=100)
def test_exact_stats_match(samples):
    h = Histogram("h")
    for v in samples:
        h.record(v)
    assert h.count == len(samples)
    assert h.min == min(samples)
    assert h.max == max(samples)
    assert math.isclose(h.mean, sum(samples) / len(samples),
                        rel_tol=1e-9, abs_tol=1e-18)


@given(samples_st)
@settings(max_examples=50)
def test_percentiles_monotone(samples):
    h = Histogram("h")
    for v in samples:
        h.record(v)
    prev = h.percentile(0)
    for p in (10, 25, 50, 75, 90, 99, 100):
        cur = h.percentile(p)
        assert cur >= prev
        prev = cur
