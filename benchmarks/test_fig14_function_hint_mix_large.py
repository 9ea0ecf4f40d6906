"""Figure 14: function-level hints -- mixed workload, 128 KB payloads."""

from benchmarks.figutil import (emit_bench, fmt_rows, is_full, kops,
                                lat_metric, tput_metric, usec)
from repro.atb import MixBenchmark
from repro.sim.units import KiB

MODES = ["hatrpc", "hybrid_eager_rndv", "direct_write_send", "rfp",
         "direct_writeimm"]
CLIENTS = [1, 4, 16, 64] if is_full() else [4, 16, 48]
PAYLOAD = 128 * KiB


def _run():
    out = {}
    for mode in MODES:
        for nc in CLIENTS:
            r = MixBenchmark(mode=mode, payload=PAYLOAD, n_clients=nc,
                             iters=10, warmup=3).run()
            out[(mode, nc)] = (r.lat_stats.mean, r.tput_ops_per_sec)
    return out


def test_fig14_function_hint_mix_large(benchmark):
    res = benchmark.pedantic(_run, rounds=1, iterations=1)
    fmt_rows("Fig. 14 (128KB): latency-call latency",
             ["mode"] + [f"{c} clients" for c in CLIENTS],
             [[m] + [usec(res[(m, c)][0]) for c in CLIENTS] for m in MODES])
    fmt_rows("Fig. 14 (128KB): throughput-call throughput",
             ["mode"] + [f"{c} clients" for c in CLIENTS],
             [[m] + [kops(res[(m, c)][1]) for c in CLIENTS] for m in MODES])
    benchmark.extra_info["mix"] = {
        f"{m}/{c}": {"lat_us": round(v[0] * 1e6, 2),
                     "tput_kops": round(v[1] / 1e3, 1)}
        for (m, c), v in res.items()}
    metrics = {}
    for (m, c), (lat, tput) in res.items():
        metrics[f"lat_us.{m}.{c}"] = lat_metric(lat)
        metrics[f"tput_kops.{m}.{c}"] = tput_metric(tput)
    emit_bench("fig14", "function_hint_mix_large", metrics,
               config={"modes": MODES, "clients": CLIENTS,
                       "payload": PAYLOAD})

    # Latency calls keep their isolated fast path despite the bulk traffic.
    for nc in CLIENTS:
        assert res[("hatrpc", nc)][0] < \
            res[("hybrid_eager_rndv", nc)][0] * 1.05, nc
