"""Figure 4: RPC-like latency of the nine RDMA protocols, busy vs event.

Reproduces the single-client ping-pong characterization.  The shape checks
encode the paper's reading of the figure: busy polling beats event polling,
Direct-WriteIMM is the best small-message protocol, RFP competitive below
1 KB, rendezvous protocols pay their handshake.
"""

from benchmarks.figutil import emit_bench, fmt_rows, is_full, lat_metric, usec
from repro.bench.proto_runner import ProtoBenchSpec, run_protocol_bench
from repro.sim.units import KiB
from repro.verbs.cq import PollMode

PROTOCOLS = ["eager_sendrecv", "direct_write_send", "chained_write_send",
             "write_rndv", "read_rndv", "direct_writeimm",
             "pilaf", "farm", "rfp"]
SIZES = ([4, 64, 512, 4 * KiB, 32 * KiB, 128 * KiB, 512 * KiB]
         if is_full() else [64, 512, 4 * KiB, 128 * KiB])


def _run():
    out = {}
    for mode in (PollMode.BUSY, PollMode.EVENT):
        for proto in PROTOCOLS:
            for size in SIZES:
                r = run_protocol_bench(ProtoBenchSpec(
                    proto, payload=size, iters=12, warmup=3, poll_mode=mode))
                out[(mode.value, proto, size)] = r.mean_latency
    return out


def test_fig04_protocol_latency(benchmark):
    lat = benchmark.pedantic(_run, rounds=1, iterations=1)
    for mode in ("busy", "event"):
        fmt_rows(f"Fig. 4 ({mode} polling): protocol latency",
                 ["protocol"] + [f"{s}B" for s in SIZES],
                 [[p] + [usec(lat[(mode, p, s)]) for s in SIZES]
                  for p in PROTOCOLS])
    benchmark.extra_info["latency_us"] = {
        f"{m}/{p}/{s}": round(v * 1e6, 3) for (m, p, s), v in lat.items()}
    emit_bench("fig04", "protocol_latency",
               {f"latency_us.{m}.{p}.{s}": lat_metric(v)
                for (m, p, s), v in lat.items()},
               config={"protocols": PROTOCOLS, "sizes": SIZES,
                       "iters": 12, "warmup": 3})

    # -- shape assertions (the paper's Fig. 4 findings) --
    small = 512
    for proto in PROTOCOLS:
        assert lat[("busy", proto, small)] < lat[("event", proto, small)]
    dwi = lat[("busy", "direct_writeimm", small)]
    for proto in PROTOCOLS:
        assert dwi <= lat[("busy", proto, small)] * 1.001, proto
    assert lat[("busy", "rfp", small)] < dwi * 1.25
    assert lat[("busy", "write_rndv", small)] > dwi * 1.5
