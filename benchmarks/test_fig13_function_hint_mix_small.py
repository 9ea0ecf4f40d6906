"""Figure 13: function-level hints -- mixed workload, 512 B payloads.

Clients issue a 50/50 mix of a latency-hinted and a throughput-hinted RPC;
the server computes a payload-proportional checksum.  Reported: latency of
the latency calls, throughput of the throughput calls.
"""

from benchmarks.figutil import (emit_bench, fmt_rows, is_full, kops,
                                lat_metric, tput_metric, usec)
from repro.atb import MixBenchmark

MODES = ["hatrpc", "hybrid_eager_rndv", "direct_write_send", "rfp",
         "direct_writeimm"]
CLIENTS = [1, 4, 16, 64, 128] if is_full() else [4, 16, 64]
PAYLOAD = 512


def _run():
    out = {}
    for mode in MODES:
        for nc in CLIENTS:
            r = MixBenchmark(mode=mode, payload=PAYLOAD, n_clients=nc,
                             iters=16, warmup=4).run()
            out[(mode, nc)] = (r.lat_stats.mean, r.tput_ops_per_sec)
    return out


def test_fig13_function_hint_mix_small(benchmark):
    res = benchmark.pedantic(_run, rounds=1, iterations=1)
    fmt_rows(f"Fig. 13 ({PAYLOAD}B): latency-call latency",
             ["mode"] + [f"{c} clients" for c in CLIENTS],
             [[m] + [usec(res[(m, c)][0]) for c in CLIENTS] for m in MODES])
    fmt_rows(f"Fig. 13 ({PAYLOAD}B): throughput-call throughput",
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
    emit_bench("fig13", "function_hint_mix_small", metrics,
               config={"modes": MODES, "clients": CLIENTS,
                       "payload": PAYLOAD})

    # HatRPC's latency calls stay ahead of the hint-less baseline at every
    # client count (paper: up to 12% at 512B).
    for nc in CLIENTS:
        assert res[("hatrpc", nc)][0] < \
            res[("hybrid_eager_rndv", nc)][0] * 1.02, nc
