#!/usr/bin/env python
"""HatKV under YCSB: the co-designed key-value store (Sections 4.4 / 5.4).

Runs the extended YCSB workload B (read-intensive, with MultiGET/MultiPUT
at batch 10) against HatKV and two of the paper's emulated comparators, on
a 5-node simulated cluster.  Also shows the backend co-design: LMDB's
reader table and commit strategy are tuned from the service hints.  The
last line is each backend's write requests per commit (the mean of the
``hatkv.group_commit.batch`` histogram): it shows whether group commit
batched any.  On this read-heavy run no write waits behind another, so
HatKV and AR-gRPC both read 1.00: group commit is on for HatKV but has
nothing to batch (a MultiPUT is one request of 10 entries either way).

Run:  python examples/kvstore_ycsb.py
"""

from repro import obs
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
    per_commit = {}
    for system in ("hatkv_function", "ar_grpc", "herd"):
        with obs.installed() as reg:
            tb = Testbed(n_nodes=5)
            server, connect = start_system(tb, system, n_clients=N_CLIENTS)
            results[system] = run_ycsb(server, connect, WORKLOAD_B,
                                       testbed=tb, n_clients=N_CLIENTS,
                                       ops_per_client=15, warmup_per_client=3)
        per_commit[system] = reg.histograms["hatkv.group_commit.batch"].mean
        if system == "hatkv_function":
            env = server.backend.env
            print("HatKV backend co-design (from the concurrency / "
                  "perf_goal hints):")
            print(f"  max_readers = {env.max_readers} "
                  "(sized from the concurrency hint)")
            print(f"  sync mode   = {env.sync_mode.value}\n")

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
    hat_batch, ar_batch = per_commit["hatkv_function"], per_commit["ar_grpc"]
    print(f"\nwrite requests per commit: HatKV {hat_batch:.2f}, "
          f"AR-gRPC {ar_batch:.2f}")
    if hat_batch == ar_batch:
        print("  (equal: no write queued behind another, so group commit "
              "had nothing to batch)")


if __name__ == "__main__":
    main()
