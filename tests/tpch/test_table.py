"""Columnar Table operator tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.tpch.engine.table import Table


def t(**cols):
    return Table({k: np.asarray(v) for k, v in cols.items()})


def test_ragged_columns_rejected():
    with pytest.raises(ValueError, match="ragged"):
        t(a=[1, 2], b=[1])


def test_filter_select_with_column():
    x = t(a=[1, 2, 3, 4], b=[10.0, 20.0, 30.0, 40.0])
    y = x.filter(x["a"] % 2 == 0)
    assert y["a"].tolist() == [2, 4]
    z = y.select(["b"]).with_column("c", y["b"] * 2)
    assert z["c"].tolist() == [40.0, 80.0]


def test_inner_join_one_to_many():
    left = t(k=[1, 2, 2, 3], v=[10, 20, 21, 30])
    right = t(rk=[2, 3, 4], w=[200, 300, 400])
    j = left.join(right, "k", "rk")
    assert sorted(zip(j["v"].tolist(), j["w"].tolist())) == [
        (20, 200), (21, 200), (30, 300)]


def test_join_duplicate_build_keys():
    left = t(k=[1], v=[10])
    right = t(rk=[1, 1], w=[100, 101])
    j = left.join(right, "k", "rk")
    assert sorted(j["w"].tolist()) == [100, 101]


def test_semi_and_anti_join():
    left = t(k=[1, 2, 3, 4])
    right = t(rk=[2, 4, 9])
    assert left.semi_join(right, "k", "rk")["k"].tolist() == [2, 4]
    assert left.semi_join(right, "k", "rk", anti=True)["k"].tolist() == [1, 3]


def test_group_by_aggregates():
    x = t(g=["a", "b", "a", "b", "a"], v=[1.0, 2.0, 3.0, 4.0, 5.0])
    g = x.group_by(["g"], {"s": ("sum", "v"), "m": ("mean", "v"),
                           "n": ("count", "v"), "mn": ("min", "v"),
                           "mx": ("max", "v")})
    rows = {r[0]: r[1:] for r in zip(g["g"], g["s"], g["m"], g["n"],
                                     g["mn"], g["mx"])}
    assert rows["a"] == (9.0, 3.0, 3, 1.0, 5.0)
    assert rows["b"] == (6.0, 3.0, 2, 2.0, 4.0)


def test_group_by_empty_input():
    x = t(g=np.asarray([], dtype=object), v=np.zeros(0))
    g = x.group_by(["g"], {"s": ("sum", "v")})
    assert len(g) == 0


def test_sort_multi_key_with_descending():
    x = t(a=[1, 2, 1, 2], b=[9.0, 8.0, 7.0, 6.0])
    s = x.sort([("a", True), ("b", False)])
    assert list(zip(s["a"].tolist(), s["b"].tolist())) == [
        (1, 9.0), (1, 7.0), (2, 8.0), (2, 6.0)]


def test_concat_schema_checked():
    with pytest.raises(ValueError):
        t(a=[1]).concat(t(b=[2]))
    c = t(a=[1]).concat(t(a=[2]))
    assert c["a"].tolist() == [1, 2]


def test_head_and_take():
    x = t(a=[5, 6, 7, 8])
    assert x.head(2)["a"].tolist() == [5, 6]
    assert x.take(np.asarray([3, 0]))["a"].tolist() == [8, 5]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.floats(-100, 100)),
                max_size=60))
def test_group_sum_matches_model(pairs):
    if not pairs:
        return
    x = t(g=[p[0] for p in pairs], v=[p[1] for p in pairs])
    g = x.group_by(["g"], {"s": ("sum", "v")})
    model = {}
    for k, v in pairs:
        model[k] = model.get(k, 0.0) + v
    got = dict(zip(g["g"].tolist(), g["s"].tolist()))
    assert set(got) == set(model)
    for k in model:
        assert got[k] == pytest.approx(model[k])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 20), max_size=50),
       st.lists(st.integers(0, 20), max_size=50))
def test_join_matches_model(lk, rk):
    left = t(k=lk, v=list(range(len(lk))))
    right = t(rk=rk, w=list(range(len(rk))))
    j = left.join(right, "k", "rk")
    expected = sorted((a, b) for a in lk for b in rk if a == b)
    assert sorted(zip(j["k"].tolist(), j["rk"].tolist())) == expected
