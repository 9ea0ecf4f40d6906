"""Figure 12: service-level hints -- ATB aggregated throughput.

HatRPC (perf_goal=throughput + deployment concurrency) vs the pinned
baselines across client counts for 512 B and 128 KB payloads.
"""

from benchmarks.figutil import emit_bench, fmt_rows, is_full, kops, tput_metric
from repro.atb import ThroughputBenchmark
from repro.sim.units import KiB

MODES = ["hatrpc", "hybrid_eager_rndv", "direct_write_send", "rfp",
         "direct_writeimm"]
CLIENTS = [1, 4, 16, 64, 128, 256, 512] if is_full() else [4, 16, 64]
SIZES = [512, 128 * KiB]


def _run():
    out = {}
    for size in SIZES:
        iters = 15 if size == 512 else 10
        for mode in MODES:
            for nc in CLIENTS:
                r = ThroughputBenchmark(mode=mode, payload=size,
                                        n_clients=nc, iters=iters,
                                        warmup=3).run()
                out[(mode, size, nc)] = r.ops_per_sec
    return out


def test_fig12_service_hint_throughput(benchmark):
    tput = benchmark.pedantic(_run, rounds=1, iterations=1)
    for size in SIZES:
        fmt_rows(f"Fig. 12 ({size}B): ATB throughput (ops/s)",
                 ["mode"] + [f"{c} clients" for c in CLIENTS],
                 [[m] + [kops(tput[(m, size, c)]) for c in CLIENTS]
                  for m in MODES])
    benchmark.extra_info["throughput_kops"] = {
        f"{m}/{s}/{c}": round(v / 1e3, 1) for (m, s, c), v in tput.items()}
    emit_bench("fig12", "service_hint_throughput",
               {f"throughput_kops.{m}.{s}.{c}": tput_metric(v)
                for (m, s, c), v in tput.items()},
               config={"modes": MODES, "clients": CLIENTS, "sizes": SIZES})

    big_c = CLIENTS[-1]
    # HatRPC never falls behind the hint-less baseline.
    for size in SIZES:
        for nc in CLIENTS:
            assert tput[("hatrpc", size, nc)] > \
                tput[("hybrid_eager_rndv", size, nc)] * 0.95, (size, nc)
    # Small messages at scale: HatRPC (Direct-WriteIMM choice) beats RFP.
    assert tput[("hatrpc", 512, big_c)] > tput[("rfp", 512, big_c)]
