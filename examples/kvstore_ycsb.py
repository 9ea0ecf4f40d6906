#!/usr/bin/env python
"""HatKV under YCSB: the co-designed key-value store (Sections 4.4 / 5.4).

Runs the extended YCSB workload B (read-intensive, with MultiGET/MultiPUT
at batch 10) against HatKV and two of the paper's emulated comparators, on
a 5-node simulated cluster.  Also shows the backend co-design: LMDB's
reader table and commit strategy are tuned from the service hints.

Run:  python examples/kvstore_ycsb.py
"""

from repro.emul import SYSTEMS, start_system
from repro.lmdb import SyncMode
from repro.sim.units import us
from repro.testbed import Testbed
from repro.ycsb import OpType, WORKLOAD_B, run_ycsb

N_CLIENTS = 32


def main():
    print(f"YCSB workload B ({N_CLIENTS} clients, 4 client nodes, "
          "zipfian keys, 24B keys / 1000B values, batch 10)\n")
    results = {}
    for system in ("hatkv_function", "ar_grpc", "herd"):
        tb = Testbed(n_nodes=5)
        server, connect = start_system(tb, system, n_clients=N_CLIENTS)
        results[system] = run_ycsb(server, connect, WORKLOAD_B, testbed=tb,
                                   n_clients=N_CLIENTS, ops_per_client=15,
                                   warmup_per_client=3)
        if system == "hatkv_function":
            backend = server.backend
            env = backend.env
            print("HatKV backend co-design (from the concurrency / "
                  "perf_goal hints):")
            print(f"  max_readers = {env.max_readers} "
                  "(sized from the concurrency hint)")
            print(f"  sync mode   = {env.sync_mode.value}")
            # the YCSB load phase is one commit of its own
            print("  writes per commit = "
                  f"{backend.writes / (env.commits - 1):.2f} (a MultiPUT is "
                  "one txn; group commit lets concurrent writes share one)\n")

    name = {k: SYSTEMS[k].name for k in results}
    hat = results["hatkv_function"].throughput_ops
    print(f"{'system':16s} {'throughput':>12s} {'GET':>10s} "
          f"{'MultiGET':>10s} {'PUT':>10s}")
    for system, r in results.items():
        def lat(op):
            s = r.latency(op)
            return f"{s.mean / us:8.1f}us" if s.samples else "     n/a"
        print(f"{name[system]:16s} {r.throughput_ops / 1e3:9.1f}kop "
              f"{lat(OpType.GET)} {lat(OpType.MULTI_GET)} {lat(OpType.PUT)}")
    print(f"\nHatKV vs HERD:    x{hat / results['herd'].throughput_ops:.2f} "
          "(HERD's chunked SEND responses collapse on 10KB MultiGETs)")
    print(f"HatKV vs AR-gRPC: x{hat / results['ar_grpc'].throughput_ops:.2f}")


if __name__ == "__main__":
    main()
