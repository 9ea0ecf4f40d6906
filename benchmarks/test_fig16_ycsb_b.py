"""Figure 16: HatKV vs emulated comparators on YCSB workload B.

The read-intensive mix (47.5% GET / 47.5% MultiGET) is communication-bound,
so the paper's orderings reproduce directly: HatKV best, AR-gRPC the
strongest comparator, HERD collapsing on MultiGET (chunked SEND responses),
Pilaf/RFP paying their multi-READ / speculative-READ fetch paths.

Each system runs on the phased harness (WARMUP -> MEASUREMENT -> COOLDOWN
on sim time): the headline numbers come from the MEASUREMENT window only,
with ops attributed to the phase they *started* in.  Every phase is
emitted as its own ``fig16`` BenchRecord (``ycsb_b.<system>.<phase>``):
the Fig. 16a throughput is each MEASUREMENT record's ``tput_kops``, and
the ``fig16/ycsb_b`` record holds the Fig. 16b mean latencies.
"""

from benchmarks.figutil import (emit_bench, fmt_rows, is_full, kops,
                                lat_metric, usec)
from repro.bench import PhasedRun
from repro.emul import start_system
from repro.sim.units import us
from repro.testbed import Testbed
from repro.ycsb import (OpType, WORKLOAD_B, measurement_result,
                        run_ycsb_phased)

SYSTEMS = ["hatkv_function", "hatkv_service", "ar_grpc", "herd", "pilaf",
           "rfp"]
N_CLIENTS = 128 if is_full() else 48
WARMUP = 250 * us
MEASURE = 1000 * us if is_full() else 600 * us
COOLDOWN = 80 * us


def _run():
    out = {}
    for system in SYSTEMS:
        tb = Testbed(n_nodes=5)
        server, connect = start_system(tb, system, n_clients=N_CLIENTS)
        run = PhasedRun(tb.sim, name=f"ycsb_b.{system}", warmup=WARMUP,
                        measurement=MEASURE, cooldown=COOLDOWN)
        run_ycsb_phased(server, connect, WORKLOAD_B, testbed=tb, run=run,
                        n_clients=N_CLIENTS)
        run.emit_phase_records("fig16", config={"system": system,
                                                "n_clients": N_CLIENTS})
        out[system] = measurement_result(run)
    return out


def test_fig16_ycsb_b(benchmark):
    res = benchmark.pedantic(_run, rounds=1, iterations=1)
    hat = res["hatkv_function"].throughput_ops
    fmt_rows(f"Fig. 16a: YCSB-B throughput ({N_CLIENTS} clients, "
             f"{MEASURE / us:.0f}us measured window)",
             ["system", "throughput", "HatKV-F speedup"],
             [[s, kops(res[s].throughput_ops),
               f"x{hat / res[s].throughput_ops:.2f}"] for s in SYSTEMS])
    fmt_rows("Fig. 16b: YCSB-B mean latency per op",
             ["system"] + [op.value for op in OpType],
             [[s] + [usec(res[s].latency(op).mean)
                     if res[s].latency(op).samples else "      n/a"
                     for op in OpType] for s in SYSTEMS])
    benchmark.extra_info["throughput_kops"] = {
        s: round(r.throughput_ops / 1e3, 1) for s, r in res.items()}
    metrics = {}
    for s, r in res.items():
        for op in OpType:
            if r.latency(op).samples:
                metrics[f"lat_us.{s}.{op.value}"] = \
                    lat_metric(r.latency(op).mean)
    emit_bench("fig16", "ycsb_b", metrics,
               config={"systems": SYSTEMS, "n_clients": N_CLIENTS,
                       "warmup_us": WARMUP / us, "measure_us": MEASURE / us})

    # The paper's throughput ordering.
    assert hat > res["ar_grpc"].throughput_ops * 0.98
    assert hat > res["pilaf"].throughput_ops * 1.15
    assert hat > res["rfp"].throughput_ops * 1.15
    assert hat > res["herd"].throughput_ops * 1.5
    # HERD's MultiGET collapse.
    assert res["herd"].latency(OpType.MULTI_GET).mean > \
        2 * res["hatkv_function"].latency(OpType.MULTI_GET).mean
