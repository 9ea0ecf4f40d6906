"""YCSB generator tests (distribution properties)."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.ycsb.generators import (
    DiscreteGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv1a_64,
)


def test_uniform_bounds_and_coverage():
    g = UniformGenerator(5, 14, seed=1)
    seen = {g.next() for _ in range(2000)}
    assert seen == set(range(5, 15))


def test_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        UniformGenerator(10, 5)


def test_zipfian_in_range_and_skewed():
    n = 1000
    g = ZipfianGenerator(n, seed=3)
    counts = collections.Counter(g.next() for _ in range(20000))
    assert all(0 <= k < n for k in counts)
    # Rank 0 must dominate: classic zipf head-heaviness.
    assert counts[0] > counts.get(100, 0) * 5
    top10 = sum(counts[i] for i in range(10)) / 20000
    assert top10 > 0.3


def test_scrambled_zipfian_spreads_hot_keys():
    n = 1000
    g = ScrambledZipfianGenerator(n, seed=3)
    counts = collections.Counter(g.next() for _ in range(20000))
    assert all(0 <= k < n for k in counts)
    # Still skewed (one key dominates)...
    hot = counts.most_common(1)[0][1]
    assert hot > 20000 * 0.05
    # ...but the hottest keys are not clustered at the low end.
    hot_keys = [k for k, _ in counts.most_common(5)]
    assert max(hot_keys) > n // 10


def test_latest_generator_tracks_insertions():
    g = LatestGenerator(100, seed=5)
    first = [g.next() for _ in range(100)]
    assert max(first) == 99
    for _ in range(50):
        g.advance()
    later = [g.next() for _ in range(100)]
    assert max(later) == 149


def test_discrete_generator_proportions():
    g = DiscreteGenerator([("a", 0.8), ("b", 0.2)], seed=9)
    counts = collections.Counter(g.next() for _ in range(10000))
    assert 0.75 < counts["a"] / 10000 < 0.85


def test_discrete_generator_validation():
    with pytest.raises(ValueError):
        DiscreteGenerator([])
    with pytest.raises(ValueError):
        DiscreteGenerator([("a", -1), ("b", 2)])


def test_fnv_deterministic_and_spread():
    assert fnv1a_64(42) == fnv1a_64(42)
    hashes = {fnv1a_64(i) % 1000 for i in range(1000)}
    assert len(hashes) > 600  # decent dispersion


def _fnv1a_64_eight_rounds(value: int) -> int:
    """The textbook form: one XOR-multiply round per byte, all eight."""
    h = 0xCBF29CE484222325
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


@pytest.mark.parametrize("value", [0, 1, 0xFF, 0x100, 19_999, 1 << 56,
                                   (1 << 64) - 1, 1 << 64, (1 << 70) + 3])
def test_fnv_equals_the_eight_round_loop_at_the_edges(value):
    assert fnv1a_64(value) == _fnv1a_64_eight_rounds(value)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 80))
def test_fnv_equals_the_eight_round_loop(value):
    assert fnv1a_64(value) == _fnv1a_64_eight_rounds(value)


def test_fnv_equals_the_eight_round_loop_over_record_numbers():
    assert all(fnv1a_64(v) == _fnv1a_64_eight_rounds(v)
               for v in range(70_000))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10000), st.integers(0, 2**31))
def test_zipfian_always_in_range(n, seed):
    g = ZipfianGenerator(n, seed=seed)
    for _ in range(50):
        assert 0 <= g.next() < n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31))
def test_generators_deterministic_by_seed(seed):
    a = [ZipfianGenerator(500, seed=seed).next() for _ in range(20)]
    b = [ZipfianGenerator(500, seed=seed).next() for _ in range(20)]
    assert a == b
