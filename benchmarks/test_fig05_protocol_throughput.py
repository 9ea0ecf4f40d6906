"""Figure 5: multi-client throughput of the RDMA protocols.

Small (512 B) and large (128 KB) messages across subscription regimes under
both polling disciplines.  Shape checks: busy polling collapses past
over-subscription while event polling scales; Direct-WriteIMM leads small
messages; RFP overtakes Direct-WriteIMM for large messages at scale.
"""

from benchmarks.figutil import emit_bench, fmt_rows, is_full, kops, tput_metric
from repro.bench.proto_runner import ProtoBenchSpec, run_protocol_bench
from repro.sim.units import KiB
from repro.verbs.cq import PollMode

PROTOCOLS = ["eager_sendrecv", "direct_write_send", "chained_write_send",
             "write_rndv", "read_rndv", "direct_writeimm",
             "pilaf", "farm", "rfp"]
CLIENTS = [1, 4, 16, 64, 128, 256] if is_full() else [4, 16, 64]
SIZES = [512, 128 * KiB]


def _run():
    out = {}
    for mode in (PollMode.BUSY, PollMode.EVENT):
        for size in SIZES:
            iters = 15 if size == 512 else 10
            for proto in PROTOCOLS:
                for nc in CLIENTS:
                    r = run_protocol_bench(ProtoBenchSpec(
                        proto, payload=size, n_clients=nc, iters=iters,
                        warmup=3, poll_mode=mode))
                    out[(mode.value, size, proto, nc)] = r.throughput_ops
    return out


def test_fig05_protocol_throughput(benchmark):
    tput = benchmark.pedantic(_run, rounds=1, iterations=1)
    for mode in ("busy", "event"):
        for size in SIZES:
            fmt_rows(
                f"Fig. 5 ({mode} polling, {size}B): throughput (ops/s)",
                ["protocol"] + [f"{c} clients" for c in CLIENTS],
                [[p] + [kops(tput[(mode, size, p, c)]) for c in CLIENTS]
                 for p in PROTOCOLS])
    benchmark.extra_info["throughput_kops"] = {
        f"{m}/{s}/{p}/{c}": round(v / 1e3, 1)
        for (m, s, p, c), v in tput.items()}
    emit_bench("fig05", "protocol_throughput",
               {f"throughput_kops.{m}.{s}.{p}.{c}": tput_metric(v)
                for (m, s, p, c), v in tput.items()},
               config={"protocols": PROTOCOLS, "clients": CLIENTS,
                       "sizes": SIZES})

    big_c = CLIENTS[-1]
    # Busy polling collapse at over-subscription (512B).
    assert tput[("event", 512, "direct_writeimm", big_c)] > \
        tput[("busy", 512, "direct_writeimm", big_c)]
    # Direct-WriteIMM leads small messages under event polling at scale.
    dwi = tput[("event", 512, "direct_writeimm", big_c)]
    assert dwi >= tput[("event", 512, "rfp", big_c)]
    # RFP overtakes for 128KB at scale (the S5.2 switch point).
    assert tput[("event", 128 * KiB, "rfp", big_c)] > \
        tput[("event", 128 * KiB, "direct_writeimm", big_c)]
