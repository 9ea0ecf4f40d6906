"""Data-generator distribution and schema-conformance tests."""

import pytest
from hypothesis import given, settings, strategies as st

from tests.tpch.engine.datagen import CONTAINERS, NATIONS, SEGMENTS, generate
from tests.tpch.engine.schema import BASE_ROWS, SCHEMA, date_to_int


@pytest.fixture(scope="module")
def db():
    return generate(sf=0.01, seed=42)


def test_all_tables_present_with_full_schema(db):
    for table, columns in SCHEMA.items():
        assert table in db
        assert set(db[table].names) == set(columns), table


def test_row_counts_scale(db):
    assert len(db["orders"]) == int(BASE_ROWS["orders"] * 0.01)
    assert len(db["customer"]) == int(BASE_ROWS["customer"] * 0.01)
    # lineitem: 1..7 lines per order, mean ~4
    ratio = len(db["lineitem"]) / len(db["orders"])
    assert 3.5 < ratio < 4.5


def test_deterministic_by_seed():
    a = generate(sf=0.002, seed=9)
    b = generate(sf=0.002, seed=9)
    assert (a["lineitem"]["l_extendedprice"] ==
            b["lineitem"]["l_extendedprice"]).all()
    c = generate(sf=0.002, seed=10)
    ca = a["lineitem"]["l_extendedprice"]
    cc = c["lineitem"]["l_extendedprice"]
    assert len(ca) != len(cc) or not (ca == cc).all()


def test_lineitem_date_invariants(db):
    li = db["lineitem"]
    assert (li["l_receiptdate"] > li["l_shipdate"]).all()
    # receipts within 30 days of shipping per our generator
    assert (li["l_receiptdate"] - li["l_shipdate"] <= 30).all()


def test_lineitem_ship_after_order(db):
    li = db["lineitem"]
    o = db["orders"]
    odate = dict(zip(o["o_orderkey"].tolist(), o["o_orderdate"].tolist()))
    ship = li["l_shipdate"]
    ok = li["l_orderkey"]
    for i in range(0, len(li), 997):  # sample
        assert ship[i] > odate[ok[i]]


def test_return_flags_follow_current_date(db):
    li = db["lineitem"]
    current = date_to_int("1995-06-17")
    flags = li["l_returnflag"]
    receipts = li["l_receiptdate"]
    n_mask = flags == "N"
    assert (receipts[n_mask] > current).all()
    assert (receipts[~n_mask] <= current).all()


def test_discount_and_tax_ranges(db):
    li = db["lineitem"]
    assert li["l_discount"].min() >= 0.0 and li["l_discount"].max() <= 0.10
    assert li["l_tax"].min() >= 0.0 and li["l_tax"].max() <= 0.08
    assert li["l_quantity"].min() >= 1 and li["l_quantity"].max() <= 50


def test_vocabularies(db):
    assert set(db["customer"]["c_mktsegment"]) <= set(SEGMENTS)
    assert set(db["part"]["p_container"]) <= set(CONTAINERS)
    assert len(db["nation"]) == len(NATIONS) == 25


def test_orders_skip_every_third_customer(db):
    custkeys = set(db["orders"]["o_custkey"].tolist())
    assert all(k % 3 != 0 for k in custkeys)


def test_foreign_keys_in_range(db):
    np_ = len(db["part"])
    ns = len(db["supplier"])
    li = db["lineitem"]
    assert li["l_partkey"].min() >= 1 and li["l_partkey"].max() <= np_
    assert li["l_suppkey"].min() >= 1 and li["l_suppkey"].max() <= ns
    ps = db["partsupp"]
    assert ps["ps_partkey"].max() <= np_ and ps["ps_suppkey"].max() <= ns


@settings(max_examples=10, deadline=None)
@given(st.floats(0.0005, 0.01), st.integers(0, 100))
def test_any_scale_factor_produces_valid_db(sf, seed):
    db = generate(sf=sf, seed=seed)
    assert len(db["lineitem"]) >= 1
    assert set(db["lineitem"]["l_orderkey"].tolist()) <= \
        set(db["orders"]["o_orderkey"].tolist())
