"""One workload, measured in this process.

``measure`` is the run shape up to the passes: boot -> one discarded
warm-up repeat -> timed repeats on fresh beds.  End-to-end numbers come
only from the timed repeats, which run with nothing installed.

Host time on a host that is not quiet
-------------------------------------
On the hosts this runs on, a fixed pure-Python loop's CPU time moves by
20-30 % within seconds and drifts over minutes (other tenants on the
core), so the median CPU time of three 5-second repeats spreads by 8-24 %
between runs of one commit.  Two properties of the set-up take most of
that out:

* the simulator is deterministic, so the k-th ``CHUNK_EVENTS`` events are
  the same work in every repeat: a timed repeat is stepped chunk by chunk
  and each chunk is taken from the repeat that ran it fastest;
* after every chunk a fixed **calibration slice** of perfbench's own code
  (a few thousand generator resumptions off a heap -- the simulator's kind
  of work, none of its code) is timed, and a chunk's cost is counted in
  slices: what slows the host slows both.

``host_us_per_op`` and ``setup_s`` are therefore in **reference-host
time**: CPU time divided by the slice's time there and then, multiplied by
``CALIB_REF_S``, the slice's time on a quiet host of the class the
benchmark was defined on.  Measured spread between runs: 3-7 %.
"""

from __future__ import annotations

import gc
import heapq
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.oracle import Recorder
from perfbench.workloads import WorkloadDef, channels, scaled_ops

__all__ = ["CALIB_REF_S", "CLIENT_PROCESS", "MIN_REPEATS", "PASS_SHARE",
           "Repeat", "cold_start", "measure", "metric", "percentile",
           "reference_cpu_s", "run_bed", "run_repeat"]

MIN_REPEATS = 3
#: repeats stop at --seconds of timed work, or here if the program got fast
MAX_REPEATS = 9
#: share of a timed repeat's ops that the warm-up and the traced passes run
PASS_SHARE = 1 / 3
#: simulator events per timed chunk: about 50 ms of host time
CHUNK_EVENTS = 5000
#: CPU-seconds of one calibration slice on the reference host
CALIB_REF_S = 2.0e-3
#: simulated client ``i`` runs as the process named ``CLIENT_PROCESS + str(i)``
CLIENT_PROCESS = "perfbench-client-"
_INF = float("inf")


def percentile(sorted_vals: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_vals) * p // 100))
    return sorted_vals[int(rank) - 1]


def metric(value: float, unit: str, n: Optional[int] = None) -> dict:
    return {"value": value, "unit": unit, "n": n}


@dataclass
class Repeat:
    """What one pass over a fresh bed produced."""

    build_cpu_s: float          # IDL compile, Testbed, server start, load
    chunk_cpu_s: List[float]    # the client loops, connect to last reply,
    chunk_calib_s: List[float]  # ... per CHUNK_EVENTS events, and the
    run_wall_s: float           # calibration slices around each
    rec: Recorder
    digest: str
    sim_now: float
    events: int
    layers: Dict[str, dict]     # per-layer metrics read off public attributes
    channels: List[dict]
    gen_file: str               # file name the generated IDL module runs as

    @property
    def ops(self) -> int:
        return self.rec.measured_ops

    @property
    def run_cpu_s(self) -> float:
        return sum(self.chunk_cpu_s)

    @property
    def host_us_per_op(self) -> float:
        """As the clock read it: not in reference-host time."""
        return self.run_cpu_s / self.ops * 1e6

    def sim_metrics(self, primary: str) -> Dict[str, dict]:
        rec = self.rec
        lat = sorted(rec.latencies[primary])
        span = rec.window_end - rec.window_start
        return {
            "sim_kops": metric(self.ops / span / 1e3, "kops/s", self.ops),
            "sim_p50_us": metric(percentile(lat, 50) * 1e6, "us", len(lat)),
            "sim_p99_us": metric(percentile(lat, 99) * 1e6, "us", len(lat)),
        }


def _attribute_layers(bed, rec: Recorder) -> Dict[str, dict]:
    """Per-layer metrics that need no instrumentation: public counters of
    the simulator, the fabric ports and the NICs, and the driver's own
    per-op latencies.  Counts per op are over every client op, the
    discarded heads included, so that they do not depend on a run's
    length."""
    tb = bed.tb
    sim = tb.sim
    ops = rec.attempted
    now = sim.now
    ports = [tb.fabric.port_of(node) for node in tb.nodes]
    server_ports = [tb.fabric.port_of(node) for node in bed.server_nodes]

    def tx_busy(port) -> float:
        return (port.wire_time(port.bytes_sent)
                + (port.messages_sent - 1) * port.wire_time(0))

    def util(nodes) -> float:
        return statistics.fmean(n.cpu.utilization(now) for n in nodes)

    out = {
        "sim.events_per_op": metric(sim.events_executed / ops, "count", ops),
        "sim.cpu.server_util": metric(util(bed.server_nodes), "ratio"),
        "sim.cpu.client_util": metric(util(bed.client_nodes), "ratio"),
        "netfab.wire_bytes_per_op": metric(
            sum(p.bytes_sent for p in ports) / ops, "B", ops),
        "netfab.msgs_per_op": metric(
            sum(p.messages_sent for p in ports) / ops, "count", ops),
        "netfab.server_tx_util": metric(
            max(tx_busy(p) for p in server_ports) / now, "ratio"),
        "netfab.drops": metric(sum(p.drops for p in ports), "count"),
        "verbs.registered_mb": metric(
            sum(n.nic.registered_bytes for n in tb.nodes) / 1e6, "MB"),
    }
    for op, prefix in (("Get", "get"), ("Put", "put"),
                       ("MultiGet", "multi_get"), ("MultiPut", "multi_put")):
        lat = sorted(rec.latencies.get(op, ()))
        if not lat:
            continue
        out[f"ycsb.{prefix}_p50_us"] = metric(percentile(lat, 50) * 1e6,
                                              "us", len(lat))
        if not prefix.startswith("multi"):
            out[f"ycsb.{prefix}_p99_us"] = metric(percentile(lat, 99) * 1e6,
                                                  "us", len(lat))
    return out


def calibration_slice() -> float:
    """CPU-seconds of a fixed piece of interpreter work of the simulator's
    kind -- generators resumed off a heap, a dict of counters -- that shares
    no code with it, so no change to the program can move it."""
    t0 = time.process_time()
    heap: list = []
    counts: Dict[int, int] = {}
    seq = 0

    def ticker(i):
        t = 0.0
        for _ in range(600):
            t += 1.0 + (i & 3)
            yield t

    for i in range(8):
        g = ticker(i)
        heapq.heappush(heap, (next(g), seq, g))
        seq += 1
    while heap:
        t, _, g = heapq.heappop(heap)
        slot = int(t) & 63
        counts[slot] = counts.get(slot, 0) + 1
        try:
            heapq.heappush(heap, (g.send(None), seq, g))
            seq += 1
        except StopIteration:
            pass
    return time.process_time() - t0


def _run_chunked(sim) -> Tuple[List[float], List[float]]:
    """Run the simulation dry.  Returns the CPU-seconds of each
    CHUNK_EVENTS events, and for each the mean of the calibration slices
    timed just before and just after it."""
    step, peek, clock = sim.step, sim.peek, time.process_time
    costs, slices = [], [calibration_slice()]
    while peek() != _INF:
        left = CHUNK_EVENTS
        t0 = clock()
        while left and peek() != _INF:
            step()
            left -= 1
        costs.append(clock() - t0)
        slices.append(calibration_slice())
    return costs, [(a + b) / 2 for a, b in zip(slices, slices[1:])]


def run_repeat(wl: WorkloadDef, seed: int, n_ops: int,
               read_back: bool = True, profiler=None) -> Repeat:
    """Build a fresh bed and run every client's loop to completion."""
    gc.collect()
    c0 = time.process_time()
    bed = wl.build(seed)
    return run_bed(bed, n_ops, time.process_time() - c0, read_back, profiler)


def run_bed(bed, n_ops: int, build_cpu_s: float = 0.0,
            read_back: bool = True, profiler=None) -> Repeat:
    """Run every client's loop on ``bed`` to completion.

    The run is stepped chunk by chunk, so that each chunk's CPU time is
    known, and ends with the read-back of what was written.  The
    instrumented passes skip the read-back, so that their counters cover
    the clients' ops only; under ``profiler`` the run is one plain
    ``sim.run()``, so that the stepping is not what gets profiled."""
    rec = Recorder(bed.op_names)
    sim = bed.tb.sim
    procs = [sim.process(g, name=f"{CLIENT_PROCESS}{i}")
             for i, g in enumerate(bed.clients(n_ops, rec))]
    c1, w1 = time.process_time(), time.perf_counter()
    if profiler is None:
        chunks, calibs = _run_chunked(sim)
    else:
        profiler.enable()
        sim.run()
        profiler.disable()
        chunks, calibs = [time.process_time() - c1], []
    w2 = time.perf_counter()
    for p in procs:
        p.value             # a client that died outside an op is our bug
    rep = Repeat(build_cpu_s=build_cpu_s, chunk_cpu_s=chunks,
                 chunk_calib_s=calibs, run_wall_s=w2 - w1, rec=rec,
                 digest=rec.digest(sim.now), sim_now=sim.now,
                 events=sim.events_executed,
                 layers=_attribute_layers(bed, rec),
                 channels=channels(bed), gen_file=bed.gen.__name__ + ".py")
    if read_back:
        readers = [sim.process(g, name=f"perfbench-readback-{i}")
                   for i, g in enumerate(bed.read_back(rec))]
        sim.run()
        for p in readers:
            p.value
    return rep


def reference_cpu_s(repeats: List[Repeat]) -> float:
    """Reference-host CPU-seconds of one repeat: every chunk counted in
    calibration slices, and taken from the repeat that needed fewest (see
    the module docstring)."""
    slices = zip(*([cost / calib for cost, calib
                    in zip(r.chunk_cpu_s, r.chunk_calib_s)] for r in repeats))
    return CALIB_REF_S * sum(map(min, slices))


def cold_start(wl: WorkloadDef, seed: int, scale: float) -> Tuple[float,
                                                                float]:
    """What precedes timed repeat 1, in a process that has just booted: the
    discarded warm-up repeat and one bed build.  Returns the CPU-seconds
    since interpreter start (imports included): as the clock read them, and
    in reference-host time by the warm-up's calibration slices."""
    warm = run_repeat(wl, seed, scaled_ops(wl, scale * PASS_SHARE))
    gc.collect()
    wl.build(seed)
    cpu_s = time.process_time()
    return cpu_s, cpu_s * CALIB_REF_S / statistics.fmean(warm.chunk_calib_s)


class DigestMismatch(RuntimeError):
    """Two repeats at one seed disagreed: the simulation is not a pure
    function of its inputs."""


def measure(wl: WorkloadDef, seed: int, seconds: float, scale: float) -> dict:
    """The timed repeats of ``wl``: its result document (see README,
    "Output"), with the end-to-end metrics and the per-layer metrics that
    need no instrumentation.  ``setup_s`` is this process's own cold start;
    the caller may replace it with the least of several."""
    boot_cpu_s = time.process_time()    # interpreter start + imports
    cold_cpu_s, cold_ref_s = cold_start(wl, seed, scale)
    n_ops = scaled_ops(wl, scale)

    repeats: List[Repeat] = []
    rss_mb: List[float] = []
    timed = 0.0
    while len(repeats) < MIN_REPEATS or (timed < seconds
                                         and len(repeats) < MAX_REPEATS):
        repeats.append(run_repeat(wl, seed, n_ops))
        timed += repeats[-1].run_wall_s
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      / 1024)

    first = repeats[0]
    if any(r.digest != first.digest for r in repeats):
        raise DigestMismatch(
            f"{wl.name} seed {seed}: sim_digest differs between repeats: "
            f"{[r.digest[:12] for r in repeats]}")
    attempted = sum(r.rec.attempted for r in repeats)
    failed = sum(r.rec.failed for r in repeats)
    ops = first.ops
    ref_s = reference_cpu_s(repeats)
    # How much the estimate depends on which repeats it saw.
    leave_one_out = [reference_cpu_s(repeats[:i] + repeats[i + 1:])
                     for i in range(len(repeats))]
    calibs = [c for r in repeats for c in r.chunk_calib_s]

    metrics = first.sim_metrics(wl.primary)
    metrics["fail_share"] = metric(failed / attempted, "ratio", attempted)
    metrics["host_us_per_op"] = metric(ref_s / ops * 1e6, "us", len(repeats))
    # Peak memory at a fixed point: later repeats only ratchet it up.
    metrics["host_rss_mb"] = metric(rss_mb[MIN_REPEATS - 1], "MB")
    metrics["setup_s"] = metric(cold_ref_s, "s", 1)
    metrics.update(first.layers)
    metrics["sim.events_per_host_s"] = metric(first.events / ref_s, "1/s",
                                              len(repeats))
    metrics["sim.sim_us_per_host_s"] = metric(first.sim_now * 1e6 / ref_s,
                                              "us/s", len(repeats))
    metrics["perfbench.wall_over_cpu"] = metric(
        sum(r.run_wall_s for r in repeats)
        / sum(r.run_cpu_s + sum(r.chunk_calib_s) for r in repeats), "ratio",
        len(repeats))
    metrics["perfbench.repeat_spread"] = metric(
        (max(leave_one_out) - min(leave_one_out)) / ref_s, "ratio",
        len(repeats))
    metrics["perfbench.calib_us"] = metric(statistics.fmean(calibs) * 1e6,
                                           "us", len(calibs))

    return {
        "workload": wl.name,
        "seed": seed,
        "scale": scale,
        "comparable": scale == 1,
        "primary_op": wl.primary,
        "clients": wl.n_clients,
        "ops_per_client": n_ops,
        "sim_digest": first.digest,
        "attempted": attempted,
        "failed": failed,
        "first_error": next((r.rec.first_error for r in repeats
                             if r.rec.first_error), None),
        "channels": first.channels,
        "metrics": metrics,
        "raw": {
            "boot_cpu_s": boot_cpu_s,
            "cold_start_cpu_s": [cold_cpu_s],
            "cold_start_ref_s": [cold_ref_s],
            "rss_mb": rss_mb,
            "build_cpu_s": [r.build_cpu_s for r in repeats],
            "run_cpu_s": [r.run_cpu_s for r in repeats],
            "run_wall_s": [r.run_wall_s for r in repeats],
            "host_us_per_op": [r.host_us_per_op for r in repeats],
            "chunks": len(first.chunk_cpu_s),
            "measured_ops": ops,
            "sim_now_s": first.sim_now,
            "events": first.events,
        },
    }
