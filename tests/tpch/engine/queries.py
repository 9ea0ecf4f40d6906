"""The 22 TPC-H queries over the columnar mini-engine.

Each query is a function ``qN(db) -> Table`` following the official query
definitions with the spec's validation parameter values.  LIKE patterns are
realized with substring/prefix tests, dates with the integer-day encoding
of :mod:`schema`.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .schema import date_to_int as d
from .table import Table

__all__ = ["QUERIES", "run_query"]


def _rev(t: Table) -> np.ndarray:
    return t["l_extendedprice"] * (1 - t["l_discount"])


def _strcol(t: Table, name: str):
    return t[name]


def _contains(col, sub: str):
    return np.fromiter((sub in s for s in col), dtype=bool, count=len(col))


def _startswith(col, pre: str):
    return np.fromiter((s.startswith(pre) for s in col), dtype=bool,
                       count=len(col))


def _endswith(col, suf: str):
    return np.fromiter((s.endswith(suf) for s in col), dtype=bool,
                       count=len(col))


def _isin(col, values):
    vals = set(values)
    return np.fromiter((s in vals for s in col), dtype=bool, count=len(col))


def q1(db):
    """Pricing summary report."""
    li = db["lineitem"]
    t = li.filter(li["l_shipdate"] <= d("1998-12-01") - 90)
    t = t.with_column("disc_price", _rev(t))
    t = t.with_column("charge", _rev(t) * (1 + t["l_tax"]))
    out = t.group_by(["l_returnflag", "l_linestatus"], {
        "sum_qty": ("sum", "l_quantity"),
        "sum_base_price": ("sum", "l_extendedprice"),
        "sum_disc_price": ("sum", "disc_price"),
        "sum_charge": ("sum", "charge"),
        "avg_qty": ("mean", "l_quantity"),
        "avg_price": ("mean", "l_extendedprice"),
        "avg_disc": ("mean", "l_discount"),
        "count_order": ("count", "l_quantity"),
    })
    return out.sort([("l_returnflag", True), ("l_linestatus", True)])


def q2(db):
    """Minimum cost supplier (region EUROPE, size 15, type %BRASS)."""
    part = db["part"]
    p = part.filter((part["p_size"] == 15)
                    & _endswith(part["p_type"], "BRASS"))
    region = db["region"]
    r = region.filter(region["r_name"] == "EUROPE")
    n = db["nation"].join(r, "n_regionkey", "r_regionkey")
    s = db["supplier"].join(n, "s_nationkey", "n_nationkey")
    ps = db["partsupp"].join(p, "ps_partkey", "p_partkey") \
                       .join(s, "ps_suppkey", "s_suppkey")
    if len(ps) == 0:
        return ps.select(["ps_partkey"])
    mins = ps.group_by(["ps_partkey"],
                       {"min_cost": ("min", "ps_supplycost")})
    ps = ps.join(mins, "ps_partkey", "ps_partkey")
    ps = ps.filter(ps["ps_supplycost"] == ps["min_cost"])
    out = ps.select(["s_acctbal", "s_name", "n_name", "ps_partkey",
                     "p_mfgr", "s_address", "s_phone", "s_comment"])
    return out.sort([("s_acctbal", False), ("n_name", True),
                     ("s_name", True), ("ps_partkey", True)]).head(100)


def q3(db):
    """Shipping priority: top 10 unshipped BUILDING orders."""
    cutoff = d("1995-03-15")
    c = db["customer"]
    c = c.filter(c["c_mktsegment"] == "BUILDING")
    o = db["orders"]
    o = o.filter(o["o_orderdate"] < cutoff).join(c, "o_custkey", "c_custkey")
    li = db["lineitem"]
    li = li.filter(li["l_shipdate"] > cutoff)
    t = li.join(o, "l_orderkey", "o_orderkey")
    t = t.with_column("rev", _rev(t))
    out = t.group_by(["l_orderkey", "o_orderdate", "o_shippriority"],
                     {"revenue": ("sum", "rev")})
    return out.sort([("revenue", False), ("o_orderdate", True),
                     ("l_orderkey", True)]).head(10)


def q4(db):
    """Order priority checking."""
    lo, hi = d("1993-07-01"), d("1993-10-01")
    o = db["orders"]
    o = o.filter((o["o_orderdate"] >= lo) & (o["o_orderdate"] < hi))
    li = db["lineitem"]
    late = li.filter(li["l_commitdate"] < li["l_receiptdate"])
    o = o.semi_join(late, "o_orderkey", "l_orderkey")
    out = o.group_by(["o_orderpriority"],
                     {"order_count": ("count", "o_orderkey")})
    return out.sort([("o_orderpriority", True)])


def q5(db):
    """Local supplier volume (ASIA, 1994)."""
    r = db["region"]
    r = r.filter(r["r_name"] == "ASIA")
    n = db["nation"].join(r, "n_regionkey", "r_regionkey")
    o = db["orders"]
    o = o.filter((o["o_orderdate"] >= d("1994-01-01"))
                 & (o["o_orderdate"] < d("1995-01-01")))
    c = db["customer"].join(n, "c_nationkey", "n_nationkey")
    o = o.join(c, "o_custkey", "c_custkey")
    li = db["lineitem"].join(o, "l_orderkey", "o_orderkey")
    s = db["supplier"]
    li = li.join(s, "l_suppkey", "s_suppkey")
    # local supplier: supplier and customer share the nation
    li = li.filter(li["s_nationkey"] == li["c_nationkey"])
    li = li.with_column("rev", _rev(li))
    out = li.group_by(["n_name"], {"revenue": ("sum", "rev")})
    return out.sort([("revenue", False)])


def q6(db):
    """Forecasting revenue change."""
    li = db["lineitem"]
    m = ((li["l_shipdate"] >= d("1994-01-01"))
         & (li["l_shipdate"] < d("1995-01-01"))
         & (li["l_discount"] >= 0.05) & (li["l_discount"] <= 0.07)
         & (li["l_quantity"] < 24))
    t = li.filter(m)
    return Table({"revenue": np.asarray(
        [(t["l_extendedprice"] * t["l_discount"]).sum()])})


def q7(db):
    """Volume shipping between FRANCE and GERMANY."""
    n = db["nation"]
    s = db["supplier"].join(n, "s_nationkey", "n_nationkey")
    s = s.with_column("supp_nation", s["n_name"])
    c = db["customer"].join(n, "c_nationkey", "n_nationkey")
    c = c.with_column("cust_nation", c["n_name"])
    li = db["lineitem"]
    li = li.filter((li["l_shipdate"] >= d("1995-01-01"))
                   & (li["l_shipdate"] <= d("1996-12-31")))
    t = li.join(db["orders"], "l_orderkey", "o_orderkey")
    t = t.join(s.select(["s_suppkey", "supp_nation"]),
               "l_suppkey", "s_suppkey")
    t = t.join(c.select(["c_custkey", "cust_nation"]),
               "o_custkey", "c_custkey")
    pair = (((t["supp_nation"] == "FRANCE") & (t["cust_nation"] == "GERMANY"))
            | ((t["supp_nation"] == "GERMANY")
               & (t["cust_nation"] == "FRANCE")))
    t = t.filter(pair)
    t = t.with_column("l_year", (t["l_shipdate"] // 365.25).astype(np.int64)
                      + 1992)
    t = t.with_column("volume", _rev(t))
    out = t.group_by(["supp_nation", "cust_nation", "l_year"],
                     {"revenue": ("sum", "volume")})
    return out.sort([("supp_nation", True), ("cust_nation", True),
                     ("l_year", True)])


def q8(db):
    """National market share (BRAZIL in AMERICA, ECONOMY ANODIZED STEEL)."""
    p = db["part"]
    p = p.filter(p["p_type"] == "ECONOMY ANODIZED STEEL")
    r = db["region"]
    r = r.filter(r["r_name"] == "AMERICA")
    n_cust = db["nation"].join(r, "n_regionkey", "r_regionkey")
    o = db["orders"]
    o = o.filter((o["o_orderdate"] >= d("1995-01-01"))
                 & (o["o_orderdate"] <= d("1996-12-31")))
    c = db["customer"].join(n_cust, "c_nationkey", "n_nationkey")
    o = o.join(c, "o_custkey", "c_custkey")
    li = db["lineitem"].join(p, "l_partkey", "p_partkey")
    t = li.join(o, "l_orderkey", "o_orderkey")
    n_all = db["nation"]
    s = db["supplier"].join(n_all, "s_nationkey", "n_nationkey")
    s.cols["supp_nation"] = s["n_name"]
    t = t.join(s.select(["s_suppkey", "supp_nation"]),
               "l_suppkey", "s_suppkey")
    t = t.with_column("o_year",
                      (t["o_orderdate"] // 365.25).astype(np.int64) + 1992)
    t = t.with_column("volume", _rev(t))
    t = t.with_column("brazil_volume",
                      np.where(t["supp_nation"] == "BRAZIL",
                               t["volume"], 0.0))
    out = t.group_by(["o_year"], {"total": ("sum", "volume"),
                                  "brazil": ("sum", "brazil_volume")})
    share = np.divide(out["brazil"], out["total"],
                      out=np.zeros(len(out)), where=out["total"] != 0)
    return out.with_column("mkt_share", share).sort([("o_year", True)])


def q9(db):
    """Product type profit measure (parts like %green%)."""
    p = db["part"]
    p = p.filter(_contains(p["p_name"], "green"))
    li = db["lineitem"].join(p, "l_partkey", "p_partkey")
    ps = db["partsupp"]
    # composite (partkey, suppkey) join realized via a keyed dict
    key = {(pk, sk): cost for pk, sk, cost in
           zip(ps["ps_partkey"].tolist(), ps["ps_suppkey"].tolist(),
               ps["ps_supplycost"].tolist())}
    costs = np.asarray([key.get((pk, sk), 0.0) for pk, sk in
                        zip(li["l_partkey"].tolist(),
                            li["l_suppkey"].tolist())])
    li = li.with_column("ps_supplycost", costs)
    n = db["nation"]
    s = db["supplier"].join(n, "s_nationkey", "n_nationkey")
    li = li.join(s.select(["s_suppkey", "n_name"]), "l_suppkey", "s_suppkey")
    li = li.join(db["orders"].select(["o_orderkey", "o_orderdate"]),
                 "l_orderkey", "o_orderkey")
    li = li.with_column("o_year",
                        (li["o_orderdate"] // 365.25).astype(np.int64) + 1992)
    li = li.with_column("amount",
                        _rev(li) - li["ps_supplycost"] * li["l_quantity"])
    out = li.group_by(["n_name", "o_year"], {"sum_profit": ("sum", "amount")})
    return out.sort([("n_name", True), ("o_year", False)])


def q10(db):
    """Returned item reporting: top 20 customers by lost revenue."""
    lo, hi = d("1993-10-01"), d("1994-01-01")
    o = db["orders"]
    o = o.filter((o["o_orderdate"] >= lo) & (o["o_orderdate"] < hi))
    li = db["lineitem"]
    li = li.filter(li["l_returnflag"] == "R")
    t = li.join(o, "l_orderkey", "o_orderkey")
    t = t.join(db["customer"], "o_custkey", "c_custkey")
    t = t.join(db["nation"].select(["n_nationkey", "n_name"]),
               "c_nationkey", "n_nationkey")
    t = t.with_column("rev", _rev(t))
    out = t.group_by(["c_custkey", "c_name", "c_acctbal", "c_phone",
                      "n_name", "c_address", "c_comment"],
                     {"revenue": ("sum", "rev")})
    return out.sort([("revenue", False), ("c_custkey", True)]).head(20)


def q11(db):
    """Important stock identification (GERMANY)."""
    n = db["nation"]
    n = n.filter(n["n_name"] == "GERMANY")
    s = db["supplier"].join(n, "s_nationkey", "n_nationkey")
    ps = db["partsupp"].join(s, "ps_suppkey", "s_suppkey")
    ps = ps.with_column("value", ps["ps_supplycost"] * ps["ps_availqty"])
    total = ps["value"].sum()
    out = ps.group_by(["ps_partkey"], {"value": ("sum", "value")})
    out = out.filter(out["value"] > total * 0.0001)
    return out.sort([("value", False), ("ps_partkey", True)])


def q12(db):
    """Shipping modes and order priority (MAIL, SHIP; 1994)."""
    li = db["lineitem"]
    m = (_isin(li["l_shipmode"], ["MAIL", "SHIP"])
         & (li["l_commitdate"] < li["l_receiptdate"])
         & (li["l_shipdate"] < li["l_commitdate"])
         & (li["l_receiptdate"] >= d("1994-01-01"))
         & (li["l_receiptdate"] < d("1995-01-01")))
    t = li.filter(m).join(db["orders"], "l_orderkey", "o_orderkey")
    high = _isin(t["o_orderpriority"], ["1-URGENT", "2-HIGH"])
    t = t.with_column("high", high.astype(np.int64))
    t = t.with_column("low", (~high).astype(np.int64))
    out = t.group_by(["l_shipmode"], {"high_line_count": ("sum", "high"),
                                      "low_line_count": ("sum", "low")})
    return out.sort([("l_shipmode", True)])


def q13(db):
    """Customer order-count distribution."""
    o = db["orders"]
    keep = ~(_contains(o["o_comment"], "special")
             & _contains(o["o_comment"], "requests"))
    o = o.filter(keep)
    per_cust = o.group_by(["o_custkey"], {"c_count": ("count", "o_orderkey")})
    counts: Dict[int, int] = {int(k): int(v) for k, v in
                              zip(per_cust["o_custkey"],
                                  per_cust["c_count"])}
    c = db["customer"]
    dist: Dict[int, int] = {}
    for ck in c["c_custkey"].tolist():
        dist[counts.get(ck, 0)] = dist.get(counts.get(ck, 0), 0) + 1
    out = Table.from_rows(["c_count", "custdist"], sorted(dist.items()))
    return out.sort([("custdist", False), ("c_count", False)])


def q14(db):
    """Promotion effect (1995-09)."""
    li = db["lineitem"]
    li = li.filter((li["l_shipdate"] >= d("1995-09-01"))
                   & (li["l_shipdate"] < d("1995-10-01")))
    t = li.join(db["part"].select(["p_partkey", "p_type"]),
                "l_partkey", "p_partkey")
    rev = _rev(t)
    promo = rev[np.asarray(_startswith(t["p_type"], "PROMO"))].sum()
    total = rev.sum()
    pct = 100.0 * promo / total if total else 0.0
    return Table({"promo_revenue": np.asarray([pct])})


def q15(db):
    """Top supplier by quarterly revenue (1996-Q1)."""
    li = db["lineitem"]
    li = li.filter((li["l_shipdate"] >= d("1996-01-01"))
                   & (li["l_shipdate"] < d("1996-04-01")))
    li = li.with_column("rev", _rev(li))
    per_supp = li.group_by(["l_suppkey"], {"total_revenue": ("sum", "rev")})
    if len(per_supp) == 0:
        return per_supp
    best = per_supp["total_revenue"].max()
    top = per_supp.filter(per_supp["total_revenue"] == best)
    out = top.join(db["supplier"], "l_suppkey", "s_suppkey")
    return out.select(["l_suppkey", "s_name", "s_address", "s_phone",
                       "total_revenue"]).sort([("l_suppkey", True)])


def q16(db):
    """Parts/supplier relationship (excluding complained-about suppliers)."""
    p = db["part"]
    m = ((p["p_brand"] != "Brand#45")
         & ~_startswith(p["p_type"], "MEDIUM POLISHED")
         & _isin(p["p_size"].tolist(), [49, 14, 23, 45, 19, 3, 36, 9]))
    p = p.filter(m)
    s = db["supplier"]
    bad = s.filter(_contains(s["s_comment"], "Customer Complaints"))
    ps = db["partsupp"].semi_join(bad, "ps_suppkey", "s_suppkey", anti=True)
    t = ps.join(p, "ps_partkey", "p_partkey")
    seen = {}
    for b, ty, sz, sk in zip(t["p_brand"], t["p_type"], t["p_size"],
                             t["ps_suppkey"]):
        seen.setdefault((b, ty, int(sz)), set()).add(int(sk))
    rows = [(b, ty, sz, len(v)) for (b, ty, sz), v in seen.items()]
    out = Table.from_rows(["p_brand", "p_type", "p_size", "supplier_cnt"],
                          rows)
    return out.sort([("supplier_cnt", False), ("p_brand", True),
                     ("p_type", True), ("p_size", True)])


def q17(db):
    """Small-quantity-order revenue (Brand#23, MED BOX)."""
    p = db["part"]
    p = p.filter((p["p_brand"] == "Brand#23")
                 & (p["p_container"] == "MED BOX"))
    li = db["lineitem"].join(p.select(["p_partkey"]),
                             "l_partkey", "p_partkey")
    if len(li) == 0:
        return Table({"avg_yearly": np.asarray([0.0])})
    avg = li.group_by(["l_partkey"], {"avg_qty": ("mean", "l_quantity")})
    li = li.join(avg, "l_partkey", "l_partkey")
    small = li.filter(li["l_quantity"] < 0.2 * li["avg_qty"])
    return Table({"avg_yearly": np.asarray(
        [small["l_extendedprice"].sum() / 7.0])})


def q18(db):
    """Large volume customers (sum(l_quantity) > 300)."""
    li = db["lineitem"]
    per_order = li.group_by(["l_orderkey"], {"sum_qty": ("sum", "l_quantity")})
    big = per_order.filter(per_order["sum_qty"] > 300)
    o = db["orders"].join(big, "o_orderkey", "l_orderkey")
    t = o.join(db["customer"].select(["c_custkey", "c_name"]),
               "o_custkey", "c_custkey")
    out = t.select(["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                    "o_totalprice", "sum_qty"])
    return out.sort([("o_totalprice", False),
                     ("o_orderdate", True)]).head(100)


def q19(db):
    """Discounted revenue: three brand/container/quantity branches."""
    li = db["lineitem"]
    li = li.filter(_isin(li["l_shipmode"], ["AIR", "REG AIR"])
                   & (li["l_shipinstruct"] == "DELIVER IN PERSON"))
    t = li.join(db["part"], "l_partkey", "p_partkey")
    sm = {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}
    med = {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}
    lg = {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}
    b1 = ((t["p_brand"] == "Brand#12") & _isin(t["p_container"], sm)
          & (t["l_quantity"] >= 1) & (t["l_quantity"] <= 11)
          & (t["p_size"] >= 1) & (t["p_size"] <= 5))
    b2 = ((t["p_brand"] == "Brand#23") & _isin(t["p_container"], med)
          & (t["l_quantity"] >= 10) & (t["l_quantity"] <= 20)
          & (t["p_size"] >= 1) & (t["p_size"] <= 10))
    b3 = ((t["p_brand"] == "Brand#34") & _isin(t["p_container"], lg)
          & (t["l_quantity"] >= 20) & (t["l_quantity"] <= 30)
          & (t["p_size"] >= 1) & (t["p_size"] <= 15))
    t = t.filter(b1 | b2 | b3)
    return Table({"revenue": np.asarray([_rev(t).sum()])})


def q20(db):
    """Potential part promotion (forest%, CANADA, 1994)."""
    p = db["part"]
    p = p.filter(_startswith(p["p_name"], "forest"))
    li = db["lineitem"]
    li = li.filter((li["l_shipdate"] >= d("1994-01-01"))
                   & (li["l_shipdate"] < d("1995-01-01")))
    shipped: Dict[tuple, float] = {}
    for pk, sk, q in zip(li["l_partkey"].tolist(), li["l_suppkey"].tolist(),
                         li["l_quantity"].tolist()):
        shipped[(pk, sk)] = shipped.get((pk, sk), 0.0) + q
    ps = db["partsupp"].semi_join(p, "ps_partkey", "p_partkey")
    keep = np.fromiter(
        (avail > 0.5 * shipped.get((pk, sk), 0.0) and (pk, sk) in shipped
         for pk, sk, avail in zip(ps["ps_partkey"].tolist(),
                                  ps["ps_suppkey"].tolist(),
                                  ps["ps_availqty"].tolist())),
        dtype=bool, count=len(ps))
    ps = ps.filter(keep)
    n = db["nation"]
    n = n.filter(n["n_name"] == "CANADA")
    s = db["supplier"].join(n, "s_nationkey", "n_nationkey")
    s = s.semi_join(ps, "s_suppkey", "ps_suppkey")
    return s.select(["s_name", "s_address"]).sort([("s_name", True)])


def _q21_counts(db):
    """Q21 core: per-supplier wait counts over the given (partial) data."""
    n = db["nation"]
    n = n.filter(n["n_name"] == "SAUDI ARABIA")
    s = db["supplier"].join(n, "s_nationkey", "n_nationkey")
    o = db["orders"]
    o = o.filter(o["o_orderstatus"] == "F")
    li = db["lineitem"].join(o.select(["o_orderkey"]),
                             "l_orderkey", "o_orderkey")
    late = (li["l_receiptdate"] > li["l_commitdate"]).astype(np.int64)
    li = li.with_column("late", late)
    # per (order, supplier): any late line; per order: distinct suppliers
    per = {}
    for ok, sk, lt in zip(li["l_orderkey"].tolist(),
                          li["l_suppkey"].tolist(), li["late"].tolist()):
        entry = per.setdefault(ok, {})
        entry[sk] = max(entry.get(sk, 0), lt)
    counts: Dict[int, int] = {}
    saudi = set(s["s_suppkey"].tolist())
    for ok, entry in per.items():
        if len(entry) < 2:
            continue  # multi-supplier orders only
        late_suppliers = [sk for sk, lt in entry.items() if lt]
        if len(late_suppliers) == 1 and late_suppliers[0] in saudi:
            sk = late_suppliers[0]
            counts[sk] = counts.get(sk, 0) + 1
    name = {int(k): v for k, v in zip(db["supplier"]["s_suppkey"],
                                      db["supplier"]["s_name"])}
    rows = [(name[sk], cnt) for sk, cnt in counts.items()]
    return Table.from_rows(["s_name", "numwait"], rows)


def q21(db):
    """Suppliers who kept orders waiting (SAUDI ARABIA)."""
    out = _q21_counts(db)
    return out.sort([("numwait", False), ("s_name", True)]).head(100)


def q22(db):
    """Global sales opportunity (country codes, positive balances)."""
    codes = {"13", "31", "23", "29", "30", "18", "17"}
    c = db["customer"]
    cc = np.asarray([phone[:2] for phone in c["c_phone"]], dtype=object)
    c = c.with_column("cntrycode", cc)
    c = c.filter(_isin(c["cntrycode"], codes))
    if len(c) == 0:
        return Table.from_rows(["cntrycode", "numcust", "totacctbal"], [])
    positive = c.filter(c["c_acctbal"] > 0.0)
    avg_bal = positive["c_acctbal"].mean() if len(positive) else 0.0
    c = c.filter(c["c_acctbal"] > avg_bal)
    c = c.semi_join(db["orders"], "c_custkey", "o_custkey", anti=True)
    out = c.group_by(["cntrycode"], {"numcust": ("count", "c_custkey"),
                                     "totacctbal": ("sum", "c_acctbal")})
    return out.sort([("cntrycode", True)])


QUERIES: Dict[int, Callable] = {
    1: q1, 2: q2, 3: q3, 4: q4, 5: q5, 6: q6, 7: q7, 8: q8, 9: q9,
    10: q10, 11: q11, 12: q12, 13: q13, 14: q14, 15: q15, 16: q16,
    17: q17, 18: q18, 19: q19, 20: q20, 21: q21, 22: q22,
}


def run_query(db, number: int) -> Table:
    try:
        fn = QUERIES[number]
    except KeyError:
        raise KeyError(f"TPC-H defines queries 1..22, not {number}") from None
    return fn(db)
