#!/usr/bin/env python
"""Distributed TPC-H with HatRPC exchange operators (Section 5.5).

Builds the 10-node analytics cluster (1 coordinator + 9 workers holding
orderkey-striped orders/lineitem), replays a handful of representative
TPC-H queries from their recorded trace under all three transports, and
prints the Fig. 17-style comparison.

Run:  python examples/tpch_analytics.py
"""

from repro.tpch.distributed import DistributedTpch

QUERIES = [1, 3, 6, 9, 13, 19]
SF = 0.005


def main():
    print(f"TPC-H at SF={SF} on 1 coordinator + 9 workers "
          "(simulated 100 Gb/s cluster)\n")
    elapsed = {}
    for mode in ("ipoib", "hatrpc_service", "hatrpc_function"):
        ex = DistributedTpch(mode=mode, sf=SF, n_workers=9, seed=1).start()
        elapsed[mode] = {}
        for q in QUERIES:
            elapsed[mode][q] = ex.run_query(q).elapsed

    print(f"{'query':>6s} {'Thrift/IPoIB':>14s} {'HatRPC-Svc':>12s} "
          f"{'HatRPC-Fn':>12s} {'speedup':>8s}")
    for q in QUERIES:
        ipo = elapsed["ipoib"][q]
        fn = elapsed["hatrpc_function"][q]
        print(f"   Q{q:02d} {ipo * 1e3:11.3f}ms "
              f"{elapsed['hatrpc_service'][q] * 1e3:10.3f}ms "
              f"{fn * 1e3:10.3f}ms   x{ipo / fn:.2f}")
    tot = {m: sum(v.values()) for m, v in elapsed.items()}
    print(f"{'TOTAL':>6s} {tot['ipoib'] * 1e3:11.3f}ms "
          f"{tot['hatrpc_service'] * 1e3:10.3f}ms "
          f"{tot['hatrpc_function'] * 1e3:10.3f}ms   "
          f"x{tot['ipoib'] / tot['hatrpc_function']:.2f}")


if __name__ == "__main__":
    main()
