"""Property-based cursor tests against a sorted-dict model."""

from hypothesis import given, settings, strategies as st

from repro.lmdb import Environment

keys = st.binary(min_size=1, max_size=6)


def build_env(mapping):
    env = Environment()
    env.open_db("main")
    with env.begin(write=True) as txn:
        for k, v in mapping.items():
            txn.put(k, v)
    return env


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(keys, st.binary(max_size=8), max_size=60),
       keys)
def test_seek_positions_at_first_ge(mapping, probe):
    env = build_env(mapping)
    with env.begin() as txn:
        hit = txn.cursor().seek(probe)
    expected = sorted(k for k in mapping if k >= probe)
    if expected:
        assert hit == (expected[0], mapping[expected[0]])
    else:
        assert hit is None


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(keys, st.binary(max_size=8), max_size=60),
       st.integers(0, 20))
def test_scan_limit_and_order(mapping, limit):
    env = build_env(mapping)
    with env.begin() as txn:
        rows = txn.cursor().scan(limit=limit)
    expected = sorted(mapping.items())[:limit]
    assert rows == expected


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(keys, st.binary(max_size=8), min_size=1,
                       max_size=40))
def test_full_iteration_matches_sorted_model(mapping):
    env = build_env(mapping)
    with env.begin() as txn:
        cur = txn.cursor()
        walked = []
        item = cur.first()
        while item is not None:
            walked.append(item)
            item = cur.next()
    assert walked == sorted(mapping.items())


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(keys, st.binary(max_size=8), max_size=40),
       keys, keys)
def test_bounded_scan(mapping, a, b):
    lo, hi = min(a, b), max(a, b)
    env = build_env(mapping)
    with env.begin() as txn:
        rows = txn.cursor().scan(lo=lo, hi=hi)
    assert rows == sorted((k, v) for k, v in mapping.items()
                          if lo <= k < hi)
