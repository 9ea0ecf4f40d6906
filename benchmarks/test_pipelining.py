"""Pipelined RPC: single-connection throughput vs the in-flight window.

One client, one Direct-WriteIMM connection, 4 KiB echoes.  The blocking
path serializes every round trip; the pipelined path (``call_async`` under
a bounded window) overlaps them, so throughput should scale with the
window until the wire or the server core saturates.  Headline check: a
window of 16 buys >= 4x the blocking throughput.
"""

from benchmarks.figutil import emit_bench, fmt_rows, is_full, kops, \
    tput_metric
from repro.atb.throughput import ThroughputBenchmark
from repro.sim.units import KiB

WINDOWS = [1, 2, 4, 8, 16, 32] if is_full() else [1, 4, 16]
MODES = ["direct_writeimm", "hatrpc"]
PAYLOAD = 4 * KiB


def _run():
    out = {}
    for mode in MODES:
        for w in WINDOWS:
            r = ThroughputBenchmark(mode=mode, payload=PAYLOAD, n_clients=1,
                                    iters=60, warmup=10,
                                    outstanding=w).run()
            out[(mode, w)] = r.ops_per_sec
    return out


def test_pipelining_window_scaling(benchmark):
    tput = benchmark.pedantic(_run, rounds=1, iterations=1)
    fmt_rows(
        f"Pipelining: 1 client, {PAYLOAD}B echo, throughput vs window",
        ["mode"] + [f"window {w}" for w in WINDOWS],
        [[m] + [kops(tput[(m, w)]) for w in WINDOWS] for m in MODES])
    benchmark.extra_info["throughput_kops"] = {
        f"{m}/{w}": round(v / 1e3, 1) for (m, w), v in tput.items()}
    emit_bench("pipelining", "window_scaling",
               {f"throughput_kops.{m}.{w}": tput_metric(v)
                for (m, w), v in tput.items()},
               config={"modes": MODES, "windows": WINDOWS,
                       "payload": PAYLOAD, "n_clients": 1})

    for mode in MODES:
        # monotone-ish: widening the window never costs throughput
        for lo, hi in zip(WINDOWS, WINDOWS[1:]):
            assert tput[(mode, hi)] >= 0.95 * tput[(mode, lo)], \
                f"{mode}: window {hi} slower than window {lo}"
    # the ISSUE's headline: window-16 >= 4x blocking on Direct-WriteIMM
    dwi = "direct_writeimm"
    assert tput[(dwi, 16)] >= 4.0 * tput[(dwi, 1)], (
        f"window-16 pipelining only bought "
        f"{tput[(dwi, 16)] / tput[(dwi, 1)]:.2f}x over blocking")
