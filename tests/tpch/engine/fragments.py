"""Per-query distributed plans: worker fragment + coordinator final.

Partitioning: ``orders`` and ``lineitem`` are striped by ``o_orderkey``
(colocated); the dimension tables are replicated on every node.  Each plan
is a (fragment, final) pair:

* ``fragment(partition_db) -> Table`` runs on a worker over its stripe and
  produces a mergeable partial (pre-aggregated wherever algebra allows --
  means are decomposed into sum+count);
* ``final(merged, dims_db) -> Table`` runs on the coordinator over the
  concatenated partials plus the replicated dimensions.

Queries touching only replicated dimensions (Q2, Q11, Q16) produce empty
partials and compute entirely in ``final`` -- their exchange is control
traffic only, which is why the paper's Fig. 17 shows near-zero gain on
some queries.

The composition ``final(concat(fragment(p) for p in partitions))`` must
equal the single-node query -- ``tests/tpch/test_distributed.py`` checks
that equivalence for every query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from .queries import (
    _contains, _isin, _rev, _startswith, d, q2, q11, q16,
)
from .table import Table

__all__ = ["PLANS", "QueryPlan"]


def _empty() -> Table:
    return Table({"_none": np.zeros(0, dtype=np.int64)})


@dataclass(frozen=True)
class QueryPlan:
    fragment: Callable
    final: Callable
    #: tables whose partition rows the worker scans (compute charging)
    touches: tuple
    #: replicated tables the coordinator's final stage scans
    final_touches: tuple = ()


# -- Q1 -------------------------------------------------------------------
def _f1(db):
    li = db["lineitem"]
    t = li.filter(li["l_shipdate"] <= d("1998-12-01") - 90)
    t = t.with_column("disc_price", _rev(t))
    t = t.with_column("charge", _rev(t) * (1 + t["l_tax"]))
    return t.group_by(["l_returnflag", "l_linestatus"], {
        "sum_qty": ("sum", "l_quantity"),
        "sum_base_price": ("sum", "l_extendedprice"),
        "sum_disc_price": ("sum", "disc_price"),
        "sum_charge": ("sum", "charge"),
        "sum_disc": ("sum", "l_discount"),
        "count_order": ("count", "l_quantity"),
    })


def _m1(merged, dims):
    g = merged.group_by(["l_returnflag", "l_linestatus"], {
        "sum_qty": ("sum", "sum_qty"),
        "sum_base_price": ("sum", "sum_base_price"),
        "sum_disc_price": ("sum", "sum_disc_price"),
        "sum_charge": ("sum", "sum_charge"),
        "sum_disc": ("sum", "sum_disc"),
        "count_order": ("sum", "count_order"),
    })
    n = g["count_order"]
    g = g.with_column("avg_qty", g["sum_qty"] / n)
    g = g.with_column("avg_price", g["sum_base_price"] / n)
    g = g.with_column("avg_disc", g["sum_disc"] / n)
    out = g.select(["l_returnflag", "l_linestatus", "sum_qty",
                    "sum_base_price", "sum_disc_price", "sum_charge",
                    "avg_qty", "avg_price", "avg_disc", "count_order"])
    return out.sort([("l_returnflag", True), ("l_linestatus", True)])


# -- Q3 ------------------------------------------------------------------------
def _f3(db):
    cutoff = d("1995-03-15")
    c = db["customer"]
    c = c.filter(c["c_mktsegment"] == "BUILDING")
    o = db["orders"]
    o = o.filter(o["o_orderdate"] < cutoff).join(c, "o_custkey", "c_custkey")
    li = db["lineitem"]
    li = li.filter(li["l_shipdate"] > cutoff)
    t = li.join(o, "l_orderkey", "o_orderkey")
    t = t.with_column("rev", _rev(t))
    return t.group_by(["l_orderkey", "o_orderdate", "o_shippriority"],
                      {"revenue": ("sum", "rev")})


def _m3(merged, dims):
    return merged.sort([("revenue", False), ("o_orderdate", True),
                        ("l_orderkey", True)]).head(10)


# -- Q4 -----------------------------------------------------------------------------
def _f4(db):
    lo, hi = d("1993-07-01"), d("1993-10-01")
    o = db["orders"]
    o = o.filter((o["o_orderdate"] >= lo) & (o["o_orderdate"] < hi))
    li = db["lineitem"]
    late = li.filter(li["l_commitdate"] < li["l_receiptdate"])
    o = o.semi_join(late, "o_orderkey", "l_orderkey")
    return o.group_by(["o_orderpriority"],
                      {"order_count": ("count", "o_orderkey")})


def _m4(merged, dims):
    out = merged.group_by(["o_orderpriority"],
                          {"order_count": ("sum", "order_count")})
    return out.sort([("o_orderpriority", True)])


# -- Q5 ----------------------------------------------------------------------------------
def _f5(db):
    r = db["region"]
    r = r.filter(r["r_name"] == "ASIA")
    n = db["nation"].join(r, "n_regionkey", "r_regionkey")
    o = db["orders"]
    o = o.filter((o["o_orderdate"] >= d("1994-01-01"))
                 & (o["o_orderdate"] < d("1995-01-01")))
    c = db["customer"].join(n, "c_nationkey", "n_nationkey")
    o = o.join(c, "o_custkey", "c_custkey")
    li = db["lineitem"].join(o, "l_orderkey", "o_orderkey")
    li = li.join(db["supplier"], "l_suppkey", "s_suppkey")
    li = li.filter(li["s_nationkey"] == li["c_nationkey"])
    li = li.with_column("rev", _rev(li))
    return li.group_by(["n_name"], {"revenue": ("sum", "rev")})


def _m5(merged, dims):
    out = merged.group_by(["n_name"], {"revenue": ("sum", "revenue")})
    return out.sort([("revenue", False)])


# -- Q6 --------------------------------------------------------------------------------------
def _f6(db):
    from .queries import q6
    return q6(db)


def _m6(merged, dims):
    return Table({"revenue": np.asarray([merged["revenue"].sum()])})


# -- Q7 / Q8 / Q9: partial group sums, re-summed at the coordinator -----------
def _regroup(keys, sums):
    def final(merged, dims, _k=tuple(keys), _s=tuple(sums)):
        out = merged.group_by(list(_k), {s: ("sum", s) for s in _s})
        return out.sort([(k, True) for k in _k])
    return final


def _f7(db):
    from .queries import q7
    return q7(db)


def _f8(db):
    # partial: per-year total/brazil sums (before computing the share)
    from . import queries as q
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
    s = db["supplier"].join(db["nation"], "s_nationkey", "n_nationkey")
    s.cols["supp_nation"] = s["n_name"]
    t = t.join(s.select(["s_suppkey", "supp_nation"]),
               "l_suppkey", "s_suppkey")
    t = t.with_column("o_year",
                      (t["o_orderdate"] // 365.25).astype(np.int64) + 1992)
    t = t.with_column("volume", _rev(t))
    t = t.with_column("brazil_volume",
                      np.where(t["supp_nation"] == "BRAZIL",
                               t["volume"], 0.0))
    return t.group_by(["o_year"], {"total": ("sum", "volume"),
                                   "brazil": ("sum", "brazil_volume")})


def _m8(merged, dims):
    out = merged.group_by(["o_year"], {"total": ("sum", "total"),
                                       "brazil": ("sum", "brazil")})
    share = np.divide(out["brazil"], out["total"],
                      out=np.zeros(len(out)), where=out["total"] != 0)
    return out.with_column("mkt_share", share).sort([("o_year", True)])


def _f9(db):
    from .queries import q9
    return q9(db)


def _m9(merged, dims):
    out = merged.group_by(["n_name", "o_year"],
                          {"sum_profit": ("sum", "sum_profit")})
    return out.sort([("n_name", True), ("o_year", False)])


# -- Q10 ------------------------------------------------------------------------
def _f10(db):
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
    return t.group_by(["c_custkey", "c_name", "c_acctbal", "c_phone",
                       "n_name", "c_address", "c_comment"],
                      {"revenue": ("sum", "rev")})


def _m10(merged, dims):
    out = merged.group_by(["c_custkey", "c_name", "c_acctbal", "c_phone",
                           "n_name", "c_address", "c_comment"],
                          {"revenue": ("sum", "revenue")})
    return out.sort([("revenue", False), ("c_custkey", True)]).head(20)


# -- Q12 ---------------------------------------------------------------------------
def _f12(db):
    from .queries import q12
    return q12(db)


def _m12(merged, dims):
    out = merged.group_by(["l_shipmode"],
                          {"high_line_count": ("sum", "high_line_count"),
                           "low_line_count": ("sum", "low_line_count")})
    return out.sort([("l_shipmode", True)])


# -- Q13 -------------------------------------------------------------------------------
def _f13(db):
    o = db["orders"]
    keep = ~(_contains(o["o_comment"], "special")
             & _contains(o["o_comment"], "requests"))
    o = o.filter(keep)
    return o.group_by(["o_custkey"], {"c_count": ("count", "o_orderkey")})


def _m13(merged, dims):
    per_cust = merged.group_by(["o_custkey"],
                               {"c_count": ("sum", "c_count")})
    counts = {int(k): int(v) for k, v in zip(per_cust["o_custkey"],
                                             per_cust["c_count"])}
    dist: Dict[int, int] = {}
    for ck in dims["customer"]["c_custkey"].tolist():
        dist[counts.get(ck, 0)] = dist.get(counts.get(ck, 0), 0) + 1
    out = Table.from_rows(["c_count", "custdist"], sorted(dist.items()))
    return out.sort([("custdist", False), ("c_count", False)])


# -- Q14 -----------------------------------------------------------------------------------
def _f14(db):
    li = db["lineitem"]
    li = li.filter((li["l_shipdate"] >= d("1995-09-01"))
                   & (li["l_shipdate"] < d("1995-10-01")))
    t = li.join(db["part"].select(["p_partkey", "p_type"]),
                "l_partkey", "p_partkey")
    rev = _rev(t)
    promo = rev[np.asarray(_startswith(t["p_type"], "PROMO"))].sum()
    return Table({"promo": np.asarray([promo]),
                  "total": np.asarray([rev.sum()])})


def _m14(merged, dims):
    promo, total = merged["promo"].sum(), merged["total"].sum()
    return Table({"promo_revenue": np.asarray(
        [100.0 * promo / total if total else 0.0])})


# -- Q15 --------------------------------------------------------------------------------------
def _f15(db):
    li = db["lineitem"]
    li = li.filter((li["l_shipdate"] >= d("1996-01-01"))
                   & (li["l_shipdate"] < d("1996-04-01")))
    li = li.with_column("rev", _rev(li))
    return li.group_by(["l_suppkey"], {"total_revenue": ("sum", "rev")})


def _m15(merged, dims):
    if len(merged) == 0:
        return merged
    per_supp = merged.group_by(["l_suppkey"],
                               {"total_revenue": ("sum", "total_revenue")})
    best = per_supp["total_revenue"].max()
    top = per_supp.filter(per_supp["total_revenue"] == best)
    out = top.join(dims["supplier"], "l_suppkey", "s_suppkey")
    return out.select(["l_suppkey", "s_name", "s_address", "s_phone",
                       "total_revenue"]).sort([("l_suppkey", True)])


# -- Q17 ----------------------------------------------------------------------------------------
def _f17(db):
    p = db["part"]
    p = p.filter((p["p_brand"] == "Brand#23")
                 & (p["p_container"] == "MED BOX"))
    li = db["lineitem"].join(p.select(["p_partkey"]),
                             "l_partkey", "p_partkey")
    return li.select(["l_partkey", "l_quantity", "l_extendedprice"])


def _m17(merged, dims):
    if len(merged) == 0:
        return Table({"avg_yearly": np.asarray([0.0])})
    avg = merged.group_by(["l_partkey"], {"avg_qty": ("mean", "l_quantity")})
    t = merged.join(avg, "l_partkey", "l_partkey")
    small = t.filter(t["l_quantity"] < 0.2 * t["avg_qty"])
    return Table({"avg_yearly": np.asarray(
        [small["l_extendedprice"].sum() / 7.0])})


# -- Q18 -----------------------------------------------------------------------------------------
def _f18(db):
    li = db["lineitem"]
    per_order = li.group_by(["l_orderkey"],
                            {"sum_qty": ("sum", "l_quantity")})
    big = per_order.filter(per_order["sum_qty"] > 300)
    o = db["orders"].join(big, "o_orderkey", "l_orderkey")
    return o.select(["o_orderkey", "o_custkey", "o_orderdate",
                     "o_totalprice", "sum_qty"])


def _m18(merged, dims):
    t = merged.join(dims["customer"].select(["c_custkey", "c_name"]),
                    "o_custkey", "c_custkey")
    out = t.select(["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                    "o_totalprice", "sum_qty"])
    return out.sort([("o_totalprice", False),
                     ("o_orderdate", True)]).head(100)


# -- Q19 -------------------------------------------------------------------------------------------
def _f19(db):
    from .queries import q19
    return q19(db)


def _m19(merged, dims):
    return Table({"revenue": np.asarray([merged["revenue"].sum()])})


# -- Q20 -----------------------------------------------------------------------------------------------
def _f20(db):
    p = db["part"]
    p = p.filter(_startswith(p["p_name"], "forest"))
    li = db["lineitem"].semi_join(p, "l_partkey", "p_partkey")
    li = li.filter((li["l_shipdate"] >= d("1994-01-01"))
                   & (li["l_shipdate"] < d("1995-01-01")))
    return li.group_by(["l_partkey", "l_suppkey"],
                       {"qty": ("sum", "l_quantity")})


def _m20(merged, dims):
    shipped: Dict[tuple, float] = {}
    for pk, sk, q in zip(merged["l_partkey"].tolist(),
                         merged["l_suppkey"].tolist(),
                         merged["qty"].tolist()):
        shipped[(pk, sk)] = shipped.get((pk, sk), 0.0) + q
    p = dims["part"]
    p = p.filter(_startswith(p["p_name"], "forest"))
    ps = dims["partsupp"].semi_join(p, "ps_partkey", "p_partkey")
    keep = np.fromiter(
        ((pk, sk) in shipped and avail > 0.5 * shipped[(pk, sk)]
         for pk, sk, avail in zip(ps["ps_partkey"].tolist(),
                                  ps["ps_suppkey"].tolist(),
                                  ps["ps_availqty"].tolist())),
        dtype=bool, count=len(ps))
    ps = ps.filter(keep)
    n = dims["nation"]
    n = n.filter(n["n_name"] == "CANADA")
    s = dims["supplier"].join(n, "s_nationkey", "n_nationkey")
    s = s.semi_join(ps, "s_suppkey", "ps_suppkey")
    return s.select(["s_name", "s_address"]).sort([("s_name", True)])


# -- Q21 --------------------------------------------------------------------------------------------------
def _f21(db):
    # per-supplier numwait over the local stripe (orders are colocated with
    # their lineitems, so the per-order supplier analysis is complete here)
    from .queries import _q21_counts
    return _q21_counts(db)


def _m21(merged, dims):
    if len(merged) == 0:
        return merged
    out = merged.group_by(["s_name"], {"numwait": ("sum", "numwait")})
    return out.sort([("numwait", False), ("s_name", True)]).head(100)


# -- Q22 ------------------------------------------------------------------------------------------------------
def _f22(db):
    o = db["orders"]
    custs = np.unique(o["o_custkey"])
    return Table({"o_custkey": custs})


def _m22(merged, dims):
    codes = {"13", "31", "23", "29", "30", "18", "17"}
    c = dims["customer"]
    cc = np.asarray([phone[:2] for phone in c["c_phone"]], dtype=object)
    c = c.with_column("cntrycode", cc)
    c = c.filter(_isin(c["cntrycode"], codes))
    if len(c) == 0:
        return Table.from_rows(["cntrycode", "numcust", "totacctbal"], [])
    positive = c.filter(c["c_acctbal"] > 0.0)
    avg_bal = positive["c_acctbal"].mean() if len(positive) else 0.0
    c = c.filter(c["c_acctbal"] > avg_bal)
    have_orders = set(merged["o_custkey"].tolist()) if len(merged) else set()
    mask = np.fromiter((ck not in have_orders
                        for ck in c["c_custkey"].tolist()),
                       dtype=bool, count=len(c))
    c = c.filter(mask)
    out = c.group_by(["cntrycode"], {"numcust": ("count", "c_custkey"),
                                     "totacctbal": ("sum", "c_acctbal")})
    return out.sort([("cntrycode", True)])


# -- dimension-only queries ------------------------------------------------------
def _dims_only(q):
    def final(merged, dims, _q=q):
        return _q(dims)
    return final


PLANS: Dict[int, QueryPlan] = {
    1: QueryPlan(_f1, _m1, ("lineitem",)),
    2: QueryPlan(lambda db: _empty(), _dims_only(q2), (),
                 final_touches=("part", "partsupp", "supplier")),
    3: QueryPlan(_f3, _m3, ("lineitem", "orders", "customer")),
    4: QueryPlan(_f4, _m4, ("lineitem", "orders")),
    5: QueryPlan(_f5, _m5, ("lineitem", "orders", "customer", "supplier")),
    6: QueryPlan(_f6, _m6, ("lineitem",)),
    7: QueryPlan(_f7, _regroup(["supp_nation", "cust_nation", "l_year"],
                               ["revenue"]),
                 ("lineitem", "orders", "customer", "supplier")),
    8: QueryPlan(_f8, _m8, ("lineitem", "orders", "customer", "part",
                            "supplier")),
    9: QueryPlan(_f9, _m9, ("lineitem", "orders", "part", "partsupp",
                            "supplier")),
    10: QueryPlan(_f10, _m10, ("lineitem", "orders", "customer")),
    11: QueryPlan(lambda db: _empty(), _dims_only(q11), (),
                  final_touches=("partsupp", "supplier")),
    12: QueryPlan(_f12, _m12, ("lineitem", "orders")),
    13: QueryPlan(_f13, _m13, ("orders",)),
    14: QueryPlan(_f14, _m14, ("lineitem", "part")),
    15: QueryPlan(_f15, _m15, ("lineitem",)),
    16: QueryPlan(lambda db: _empty(), _dims_only(q16), (),
                  final_touches=("part", "partsupp", "supplier")),
    17: QueryPlan(_f17, _m17, ("lineitem", "part")),
    18: QueryPlan(_f18, _m18, ("lineitem", "orders")),
    19: QueryPlan(_f19, _m19, ("lineitem", "part")),
    20: QueryPlan(_f20, _m20, ("lineitem", "part", "partsupp")),
    21: QueryPlan(_f21, _m21, ("lineitem", "orders", "supplier")),
    22: QueryPlan(_f22, _m22, ("orders",)),
}
