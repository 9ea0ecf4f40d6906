"""Figure 15: HatKV vs emulated comparators on YCSB workload A.

Six candidates over one shared LMDB backend (Section 5.4): HatRPC-Service,
HatRPC-Function, AR-gRPC, HERD, Pilaf, RFP.  Reported per system: total
throughput plus per-operation mean latency (the figure's two panels).

HatKV's throughput-hinted backend group-commits its writes while the
comparators keep the stock single-writer LMDB, whose writer bounds their
throughput on this write-heavy mix: both HatKV variants lead every
comparator, by less than the paper's margins (see EXPERIMENTS.md).  The
latency panel's ordering (HatKV's GETs far below Pilaf's and RFP's, HERD
worst MultiGET, HatKV's writes the cheapest) reproduces.

Each system runs on the phased harness (WARMUP -> MEASUREMENT -> COOLDOWN
on sim time): the headline numbers come from the MEASUREMENT window only,
with ops attributed to the phase they *started* in.  Every phase is
emitted as its own ``fig15`` BenchRecord (``ycsb_a.<system>.<phase>``):
the Fig. 15a throughput is each MEASUREMENT record's ``tput_kops``, and
the ``fig15/ycsb_a`` record holds the Fig. 15b mean latencies.
"""

from benchmarks.figutil import (emit_bench, fmt_rows, is_full, kops,
                                lat_metric, usec)
from repro.bench import PhasedRun
from repro.emul import start_system
from repro.sim.units import us
from repro.testbed import Testbed
from repro.ycsb import (OpType, WORKLOAD_A, measurement_result,
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
        run = PhasedRun(tb.sim, name=f"ycsb_a.{system}", warmup=WARMUP,
                        measurement=MEASURE, cooldown=COOLDOWN)
        run_ycsb_phased(server, connect, WORKLOAD_A, testbed=tb, run=run,
                        n_clients=N_CLIENTS)
        run.emit_phase_records("fig15", config={"system": system,
                                                "n_clients": N_CLIENTS})
        out[system] = measurement_result(run)
    return out


def test_fig15_ycsb_a(benchmark):
    res = benchmark.pedantic(_run, rounds=1, iterations=1)
    fmt_rows(f"Fig. 15a: YCSB-A throughput ({N_CLIENTS} clients, "
             f"{MEASURE / us:.0f}us measured window)",
             ["system", "throughput"],
             [[s, kops(res[s].throughput_ops)] for s in SYSTEMS])
    fmt_rows("Fig. 15b: YCSB-A mean latency per op",
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
    emit_bench("fig15", "ycsb_a", metrics,
               config={"systems": SYSTEMS, "n_clients": N_CLIENTS,
                       "warmup_us": WARMUP / us, "measure_us": MEASURE / us})

    # Latency-panel orderings from the paper.
    hat = res["hatkv_function"]
    assert hat.latency(OpType.GET).mean < \
        res["pilaf"].latency(OpType.GET).mean
    assert hat.latency(OpType.MULTI_GET).mean < \
        res["herd"].latency(OpType.MULTI_GET).mean
    # Throughput panel: each HatKV variant above every comparator.
    for s in ("hatkv_function", "hatkv_service"):
        for other in SYSTEMS[2:]:          # the four comparators
            assert res[s].throughput_ops > res[other].throughput_ops, \
                (s, other)
