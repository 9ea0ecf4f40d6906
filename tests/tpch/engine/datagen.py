"""Deterministic TPC-H data generator (dbgen equivalent).

Value distributions follow the TPC-H specification where the queries
depend on them (date ranges, discount/quantity ranges, brand/type/container
vocabularies, market segments, order priorities, return flags derived from
receipt dates); free-text fields are short placeholders to keep memory
proportional to what the queries actually touch.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .schema import BASE_ROWS, date_to_int
from .table import Table

__all__ = ["generate"]

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIPINSTRUCT = ["DELIVER IN PERSON", "COLLECT COD", "NONE",
                "TAKE BACK RETURN"]
CONTAINERS = [f"{a} {b}" for a in ("SM", "LG", "MED", "JUMBO", "WRAP")
              for b in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN",
                        "DRUM")]
TYPE_S1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
TYPE_S2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
TYPE_S3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

#: order dates span 1992-01-01 .. 1998-08-02 per the spec.
_MIN_ORDER_DATE = 0
_MAX_ORDER_DATE = date_to_int("1998-08-02")
_CURRENT_DATE = date_to_int("1995-06-17")  # spec's 'currentdate' anchor


def _pick(rng, choices, n):
    return np.asarray(choices, dtype=object)[rng.integers(0, len(choices), n)]


def generate(sf: float = 0.01, seed: int = 0) -> Dict[str, Table]:
    """Generate a full database at the given scale factor."""
    rng = np.random.default_rng(seed)
    db: Dict[str, Table] = {}

    def count(table: str) -> int:
        base = BASE_ROWS[table]
        return base if table in ("region", "nation") else max(
            1, int(base * sf))

    # -- region / nation (fixed) ---------------------------------------------
    db["region"] = Table({
        "r_regionkey": np.arange(5, dtype=np.int64),
        "r_name": np.asarray(REGIONS, dtype=object),
        "r_comment": np.asarray(["" for _ in REGIONS], dtype=object),
    })
    db["nation"] = Table({
        "n_nationkey": np.arange(25, dtype=np.int64),
        "n_name": np.asarray([n for n, _ in NATIONS], dtype=object),
        "n_regionkey": np.asarray([r for _, r in NATIONS], dtype=np.int64),
        "n_comment": np.asarray(["" for _ in NATIONS], dtype=object),
    })

    # -- supplier --------------------------------------------------------------
    ns = count("supplier")
    db["supplier"] = Table({
        "s_suppkey": np.arange(1, ns + 1, dtype=np.int64),
        "s_name": np.asarray([f"Supplier#{i:09d}" for i in range(1, ns + 1)],
                             dtype=object),
        "s_address": _pick(rng, ["addr"], ns),
        "s_nationkey": rng.integers(0, 25, ns),
        "s_phone": _pick(rng, ["11-111-111-1111", "22-222-222-2222"], ns),
        "s_acctbal": np.round(rng.uniform(-999.99, 9999.99, ns), 2),
        "s_comment": _pick(rng, ["", "Customer Complaints", ""], ns),
    })

    # -- customer ----------------------------------------------------------------
    nc = count("customer")
    db["customer"] = Table({
        "c_custkey": np.arange(1, nc + 1, dtype=np.int64),
        "c_name": np.asarray([f"Customer#{i:09d}" for i in range(1, nc + 1)],
                             dtype=object),
        "c_address": _pick(rng, ["caddr"], nc),
        "c_nationkey": rng.integers(0, 25, nc),
        "c_phone": np.asarray([f"{rng.integers(10, 35)}-000-000-0000"
                               for _ in range(nc)], dtype=object),
        "c_acctbal": np.round(rng.uniform(-999.99, 9999.99, nc), 2),
        "c_mktsegment": _pick(rng, SEGMENTS, nc),
        "c_comment": _pick(rng, ["", "special requests", ""], nc),
    })

    # -- part ------------------------------------------------------------------------
    np_ = count("part")
    types = [f"{a} {b} {c}" for a in TYPE_S1 for b in TYPE_S2
             for c in TYPE_S3]
    db["part"] = Table({
        "p_partkey": np.arange(1, np_ + 1, dtype=np.int64),
        "p_name": _pick(rng, ["forest green metallic", "green blush",
                              "ivory khaki", "powder puff",
                              "forest powder drab"], np_),
        "p_mfgr": _pick(rng, [f"Manufacturer#{i}" for i in range(1, 6)], np_),
        "p_brand": _pick(rng, [f"Brand#{i}{j}" for i in range(1, 6)
                               for j in range(1, 6)], np_),
        "p_type": _pick(rng, types, np_),
        "p_size": rng.integers(1, 51, np_),
        "p_container": _pick(rng, CONTAINERS, np_),
        "p_retailprice": np.round(900 + rng.uniform(0, 200, np_), 2),
        "p_comment": _pick(rng, [""], np_),
    })

    # -- partsupp ----------------------------------------------------------------------
    nps = count("partsupp")
    db["partsupp"] = Table({
        "ps_partkey": rng.integers(1, np_ + 1, nps),
        "ps_suppkey": rng.integers(1, ns + 1, nps),
        "ps_availqty": rng.integers(1, 10_000, nps),
        "ps_supplycost": np.round(rng.uniform(1.0, 1000.0, nps), 2),
        "ps_comment": _pick(rng, [""], nps),
    })

    # -- orders ---------------------------------------------------------------------------
    no = count("orders")
    odate = rng.integers(_MIN_ORDER_DATE, _MAX_ORDER_DATE - 121, no)
    # Per the spec, orders reference only two thirds of the customers
    # (custkeys that are multiples of 3 never order) -- Q22 depends on it.
    cust_pool = np.arange(1, nc + 1, dtype=np.int64)
    cust_pool = cust_pool[cust_pool % 3 != 0]
    db["orders"] = Table({
        "o_orderkey": np.arange(1, no + 1, dtype=np.int64),
        "o_custkey": rng.choice(cust_pool, no),
        "o_orderstatus": _pick(rng, ["F", "O", "P"], no),
        "o_totalprice": np.round(rng.uniform(1000, 400000, no), 2),
        "o_orderdate": odate,
        "o_orderpriority": _pick(rng, PRIORITIES, no),
        "o_clerk": _pick(rng, [f"Clerk#{i:09d}" for i in range(1, 21)], no),
        "o_shippriority": np.zeros(no, dtype=np.int64),
        "o_comment": _pick(rng, ["", "special deposits",
                                 "special requests pending"], no),
    })

    # -- lineitem: 1..7 lines per order (mean ~4) ---------------------------------------------
    lines_per_order = rng.integers(1, 8, no)
    nl = int(lines_per_order.sum())
    l_orderkey = np.repeat(db["orders"]["o_orderkey"], lines_per_order)
    l_odate = np.repeat(odate, lines_per_order)
    shipdelay = rng.integers(1, 122, nl)
    l_ship = l_odate + shipdelay
    l_commit = l_odate + rng.integers(30, 91, nl)
    l_receipt = l_ship + rng.integers(1, 31, nl)
    qty = rng.integers(1, 51, nl).astype(np.float64)
    price = np.round(qty * (900 + rng.uniform(0, 200, nl)) / 10, 2)
    returned = l_receipt <= _CURRENT_DATE
    rflag = np.where(returned,
                     np.where(rng.random(nl) < 0.5, "R", "A"), "N")
    db["lineitem"] = Table({
        "l_orderkey": l_orderkey,
        "l_partkey": rng.integers(1, np_ + 1, nl),
        "l_suppkey": rng.integers(1, ns + 1, nl),
        "l_linenumber": np.concatenate(
            [np.arange(1, c + 1) for c in lines_per_order]),
        "l_quantity": qty,
        "l_extendedprice": price,
        "l_discount": np.round(rng.integers(0, 11, nl) / 100.0, 2),
        "l_tax": np.round(rng.integers(0, 9, nl) / 100.0, 2),
        "l_returnflag": rflag.astype(object),
        "l_linestatus": np.where(l_ship > _CURRENT_DATE, "O", "F").astype(object),
        "l_shipdate": l_ship,
        "l_commitdate": l_commit,
        "l_receiptdate": l_receipt,
        "l_shipinstruct": _pick(rng, SHIPINSTRUCT, nl),
        "l_shipmode": _pick(rng, SHIPMODES, nl),
        "l_comment": _pick(rng, [""], nl),
    })
    return db
