"""Ablation benches for the design choices DESIGN.md calls out.

Each isolates one mechanism the HatRPC design leans on:

* polling discipline crossover (busy vs event as concurrency grows);
* chained-WR doorbell saving (Direct-Write-Send vs Chained vs WriteIMM);
* the Hybrid-EagerRNDV 4 KB threshold (eager/rendezvous switch point);
* hint-machinery overhead (HatRPC vs the same protocol pinned).
"""

import pytest

from benchmarks.figutil import fmt_rows, kops, usec
from repro.bench import ProtoBenchSpec, run_protocol_bench
from repro.atb import LatencyBenchmark
from repro.protocols import ProtoConfig
from repro.sim.units import KiB
from repro.verbs.cq import PollMode


def test_abl_polling_crossover(benchmark):
    """Busy polling wins under-subscribed, loses over-subscribed."""
    def run():
        out = {}
        for mode in (PollMode.BUSY, PollMode.EVENT):
            for nc in (2, 8, 32, 96):
                r = run_protocol_bench(ProtoBenchSpec(
                    "direct_writeimm", payload=512, n_clients=nc, iters=15,
                    warmup=4, poll_mode=mode))
                out[(mode.value, nc)] = r.throughput_ops
        return out

    tput = benchmark.pedantic(run, rounds=1, iterations=1)
    fmt_rows("Ablation: polling discipline vs concurrency (512B, ops/s)",
             ["mode", "2", "8", "32", "96"],
             [[m] + [kops(tput[(m, c)]) for c in (2, 8, 32, 96)]
              for m in ("busy", "event")])
    assert tput[("busy", 2)] > tput[("event", 2)]
    assert tput[("event", 96)] > tput[("busy", 96)]


def test_abl_wr_chaining(benchmark):
    """One doorbell per message (chained / IMM) vs two (separate)."""
    def run():
        out = {}
        for proto in ("direct_write_send", "chained_write_send",
                      "direct_writeimm"):
            r = run_protocol_bench(ProtoBenchSpec(proto, payload=64,
                                                  iters=20, warmup=5))
            out[proto] = r.mean_latency
        return out

    lat = benchmark.pedantic(run, rounds=1, iterations=1)
    fmt_rows("Ablation: WR chaining (64B latency)",
             ["protocol", "latency"],
             [[p, usec(v)] for p, v in lat.items()])
    assert lat["chained_write_send"] < lat["direct_write_send"]
    assert lat["direct_writeimm"] < lat["chained_write_send"]


def test_abl_eager_threshold(benchmark):
    """Sweep the Hybrid-EagerRNDV switch point around the 4KB default."""
    payloads = [2 * KiB, 8 * KiB]
    thresholds = [512, 4 * KiB, 16 * KiB]

    def run():
        from repro.protocols import get_protocol
        from repro.testbed import Testbed
        out = {}
        for thr in thresholds:
            for size in payloads:
                tb = Testbed(n_nodes=2)
                cfg = ProtoConfig(eager_threshold=thr, max_msg=64 * KiB)
                client_cls, server_cls = get_protocol("hybrid_eager_rndv")
                resp = bytes(size)
                server_cls(tb.node(0).nic, 1, lambda _r, _resp=resp: _resp,
                           cfg).start()
                lat = []

                def client():
                    c = client_cls(tb.node(1).nic, cfg)
                    yield from c.connect(tb.node(0), 1)
                    req = bytes(size)
                    for k in range(15):
                        t0 = tb.sim.now
                        yield from c.call(req, resp_hint=size)
                        if k >= 3:
                            lat.append(tb.sim.now - t0)

                tb.sim.run(tb.sim.process(client()))
                out[(thr, size)] = sum(lat) / len(lat)
        return out

    lat = benchmark.pedantic(run, rounds=1, iterations=1)
    fmt_rows("Ablation: Hybrid eager/rendezvous threshold (latency)",
             ["threshold"] + [f"{p}B payload" for p in payloads],
             [[f"{t}B"] + [usec(lat[(t, p)]) for p in payloads]
              for t in thresholds])
    # 2KB payload: eager (thr>=4KB) beats rendezvous (thr=512B).
    assert lat[(4 * KiB, 2 * KiB)] < lat[(512, 2 * KiB)]
    # 8KB payload: rendezvous (thr=4KB) beats oversized eager copies only
    # if the copy cost dominates; at minimum the default is never the
    # worst of the three.
    default = lat[(4 * KiB, 8 * KiB)]
    assert default <= max(lat[(512, 8 * KiB)], lat[(16 * KiB, 8 * KiB)])


def test_abl_hint_overhead(benchmark):
    """The hint machinery must cost (almost) nothing per call: HatRPC vs
    the identical protocol pinned statically."""
    def run():
        hat = LatencyBenchmark(mode="hatrpc", payload=512, iters=20,
                               warmup=5).run().mean
        pinned = LatencyBenchmark(mode="direct_writeimm", payload=512,
                                  iters=20, warmup=5).run().mean
        return {"hatrpc": hat, "pinned": pinned}

    lat = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = (lat["hatrpc"] - lat["pinned"]) / lat["pinned"]
    fmt_rows("Ablation: dynamic-hint overhead (512B latency)",
             ["path", "latency"],
             [["HatRPC (hints resolved per call)", usec(lat["hatrpc"])],
              ["pinned Direct-WriteIMM", usec(lat["pinned"])],
              ["overhead", f"{overhead * 100:+9.2f}%"]])
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 3)
    assert abs(overhead) < 0.05  # paper: hint overhead is minimized
