"""The instrumented passes: where the time of a primary op goes.

* pass T -- one repeat under the program's own tracer and metrics
  registry: simulated self time per stage, and counts at layer boundaries;
* pass P -- one repeat under cProfile: host time per package;
* pass L -- each layer's public functions timed alone on this workload's
  shapes.

All three run at a third of a timed repeat's size and are compared with an
uninstrumented repeat of that same size, which gives the instruments' own
overhead.  Nothing here feeds an end-to-end metric.
"""

from __future__ import annotations

import cProfile
import itertools
import pstats
import time
import warnings
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.core.runtime import service_plan_of
from repro.hatkv import HashRing
from repro.idl import load_idl
from repro.lmdb import Environment, SyncMode
from repro.obs import MetricsRegistry
from repro.obs.trace import TraceCollector
from repro.sim.core import Process, Simulator, Timeout
from repro.sim.cpu import CpuScheduler
from repro.thrift import TBinaryProtocol, TMemoryBuffer, TMessageType
from repro.ycsb.workload import Workload

from perfbench.runner import (CALIB_REF_S, CLIENT_PROCESS, PASS_SHARE, Repeat,
                              calibration_slice, metric, reference_cpu_s,
                              run_bed, run_repeat)
from perfbench.workloads import WorkloadDef, YcsbBed, scaled_ops

__all__ = ["PACKAGES", "STAGE_METRIC", "bucket_profile", "run_all",
           "stage_self_times"]

#: trace stage name -> the metric named after the layer that owns the stage
STAGE_METRIC = {
    "serialize": "thrift.sim_us.serialize",
    "deserialize": "thrift.sim_us.deserialize",
    "hint_select": "core.sim_us.hint_select",
    "complete": "core.sim_us.complete",
    "dispatch": "core.sim_us.dispatch",
    "post": "verbs.sim_us.post",
    "cq_wait": "verbs.sim_us.cq_wait",
    "poll": "verbs.sim_us.poll",
    "network": "netfab.sim_us.network",
    "reply": "protocols.sim_us.reply",
    "handler": "hatkv.sim_us.handler",
    "backend": "lmdb.sim_us.backend",
}

#: stages that only wait for another stage's work: the server idling until
#: a request lands, the client blocked until its reply does
WAITING = frozenset({"poll", "cq_wait", "complete"})

#: packages under src/repro/ that get a host_share, plus the driver itself
PACKAGES = ("sim", "netfab", "verbs", "protocols", "thrift", "idl", "core",
            "lmdb", "hatkv", "ycsb", "atb", "obs", "perfbench")


# ---------------------------------------------------------------------------
# Pass T: simulated self time per stage, counts at layer boundaries
# ---------------------------------------------------------------------------

def stage_self_times(spans: Iterable) -> Dict[str, float]:
    """Total self time per stage name over the traces in ``spans``.

    Within one trace every instant of the client call belongs to the
    innermost stage covering it, so stages never count an instant twice
    and their sum cannot exceed the call.  On a properly nested tree this
    is the usual "span minus its children".  The program's stages are
    mostly siblings that overlap in time (the client's ``cq_wait`` spans
    the server's whole ``poll``/``dispatch``/``reply``), so nesting is
    read off the clock, not the parent links: innermost is the shortest
    covering span once clipped to the call; on a tie the later start, then
    the deeper span.  A stage in ``WAITING`` only owns the instants no
    working stage covers.  Time no stage covers is the caller's residual.
    """
    by_trace: Dict[str, List] = {}
    for s in spans:
        by_trace.setdefault(s.trace_id, []).append(s)
    out: Dict[str, float] = {}
    for trace in by_trace.values():
        root = next((s for s in trace
                     if s.kind == "client" and not s.parent_span_id), None)
        if root is None:
            continue
        parent = {s.span_id: s.parent_span_id for s in trace}

        def depth(span_id: str) -> int:
            d = 0
            while parent.get(span_id):
                span_id, d = parent[span_id], d + 1
            return d

        stages = []
        for s in trace:
            lo, hi = max(s.start, root.start), min(s.end, root.end)
            if s.kind == "stage" and hi > lo:
                rank = (s.name in WAITING, hi - lo, -lo, -depth(s.span_id))
                stages.append((lo, hi, rank, s.name))
        edges = sorted({t for lo, hi, _, _ in stages for t in (lo, hi)})
        for lo, hi in zip(edges, edges[1:]):
            covering = [st for st in stages if st[0] <= lo and st[1] >= hi]
            if covering:
                name = min(covering, key=lambda st: st[2])[3]
                out[name] = out.get(name, 0.0) + hi - lo
    return out


def _counter_sum(flat: Dict[str, float], prefix: str, suffix: str) -> float:
    return sum(v for k, v in flat.items()
               if k.startswith(prefix) and k.endswith(suffix))


class _ClientTagger(TraceCollector):
    """Stamps every client root span with the name of the simulated process
    that made the call: for the driver's own clients, which client."""

    sim = None                  # set once the bed exists

    def start_call(self, name, node, now_fn, attrs=None):
        act = super().start_call(name, node, now_fn, attrs)
        act.root.attrs["process"] = self.sim.active_process.name
        return act


def _traced(wl: WorkloadDef, seed: int, n_ops: int,
            base: Repeat) -> Dict[str, dict]:
    reg = MetricsRegistry()
    col = _ClientTagger(sample_rate=1.0)
    with warnings.catch_warnings():
        # The earlier repeats ran with nothing installed, on purpose.
        warnings.simplefilter("ignore", obs.ObsInstallOrderWarning)
        with obs.installed(reg), obs.trace.installed(collector=col):
            bed = wl.build(seed)
            col.sim = bed.tb.sim
            rep = run_bed(bed, n_ops, read_back=False)
    rec = rep.rec
    ops = rec.attempted

    # Stage means over the measured primary ops, against exactly the engine
    # calls they made: those of that function that a client's process
    # started once that client was past its discarded head.
    def measured(root) -> bool:
        _, is_client, i = root.attrs["process"].partition(CLIENT_PROCESS)
        return bool(is_client) and root.start >= rec.first_measured[int(i)]

    lat = rec.latencies[wl.primary]
    roots = {s.trace_id for s in col.spans
             if s.kind == "client" and not s.parent_span_id
             and s.name == wl.primary and measured(s)}
    totals = stage_self_times(s for s in col.spans if s.trace_id in roots)
    n = len(lat)
    mean_lat = sum(lat) / n
    out = {metric_name: metric(totals.get(stage, 0.0) / n * 1e6, "us", n)
           for stage, metric_name in STAGE_METRIC.items()}
    staged = sum(totals.get(stage, 0.0) for stage in STAGE_METRIC) / n
    out["core.sim_residual_share"] = metric(1 - staged / mean_lat, "ratio", n)

    flat = reg.flat_values()
    waits = flat.get("cq.wait_busy", 0) + flat.get("cq.wait_event", 0)
    proto_ops = _counter_sum(flat, "proto.", ".ops")
    shard_ops = [v for k, v in flat.items()
                 if k.startswith("hatkv.router.shard") and k.endswith(".ops")]

    def share(name: str) -> float:
        return flat.get(f"proto.{name}.ops", 0) / proto_ops

    out.update({
        "verbs.wrs_per_op": metric(flat["verbs.wrs_posted"] / ops, "count",
                                   ops),
        "verbs.doorbells_per_op": metric(flat["verbs.doorbells"] / ops,
                                         "count", ops),
        "verbs.cq_waits_per_op": metric(waits / ops, "count", ops),
        "verbs.completions_per_wait": metric(
            flat["cq.completions"] / waits, "ratio", int(waits)),
        "core.calls_per_op": metric(flat["engine.calls"] / ops, "count",
                                    ops),
        "core.retries_per_op": metric(flat.get("faults.retries", 0) / ops,
                                      "count", ops),
        "core.rejections": metric(flat.get("faults.rejections", 0), "count"),
        "protocols.ops_share.direct_writeimm": metric(
            share("direct_writeimm"), "ratio", int(proto_ops)),
        "protocols.ops_share.rfp": metric(share("rfp"), "ratio",
                                          int(proto_ops)),
        "protocols.ops_share.other": metric(
            1 - share("direct_writeimm") - share("rfp"), "ratio",
            int(proto_ops)),
        "protocols.req_bytes_per_op": metric(
            _counter_sum(flat, "proto.", ".req_bytes") / ops, "B", ops),
        "protocols.resp_bytes_per_op": metric(
            _counter_sum(flat, "proto.", ".resp_bytes") / ops, "B", ops),
        "obs.trace_host_overhead": metric(
            reference_cpu_s([rep]) / reference_cpu_s([base]), "ratio"),
        "obs.trace_sim_skew": metric(
            rep.sim_metrics(wl.primary)["sim_kops"]["value"]
            / base.sim_metrics(wl.primary)["sim_kops"]["value"], "ratio"),
    })
    if shard_ops:
        out.update({
            "hatkv.server_requests_per_op": metric(
                _counter_sum(flat, "proto.", ".server_requests") / ops,
                "count", ops),
            "hatkv.shard_imbalance": metric(
                max(shard_ops) * len(shard_ops) / sum(shard_ops), "ratio",
                int(sum(shard_ops))),
            "hatkv.lease.write_stalls": metric(
                flat.get("hatkv.lease.write_stalls", 0), "count"),
            "hatkv.router.read_failovers": metric(
                flat.get("hatkv.router.read_failovers", 0), "count"),
        })
    return out


# ---------------------------------------------------------------------------
# Pass P: host time per package
# ---------------------------------------------------------------------------

def _package_of(filename: str, generated: str) -> Optional[str]:
    """The bucket a source file belongs to; None for code that is neither
    the program's nor the driver's (builtins, the standard library)."""
    path = filename.replace("\\", "/")
    if path == generated:
        return "idl"            # the IDL compiler's output runs under its name
    _, found, rest = path.rpartition("/repro/")
    if found:
        pkg, below, _ = rest.partition("/")
        return pkg if below else "repro"    # a module directly under repro/
    return "perfbench" if "/perfbench/" in path else None


def bucket_profile(stats: Dict[Tuple, Tuple], generated: str = ""
                   ) -> Dict[str, float]:
    """``tottime`` per package from a ``pstats``-shaped stats dict.

    A function of the program or the driver is charged to its own package.
    Any other function (a C builtin, the standard library) is charged to
    the packages that called it, edge by edge, using the per-caller
    ``tottime`` cProfile keeps; time whose caller is itself foreign goes
    to ``other``.
    """
    out: Dict[str, float] = {}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.items():
        own = _package_of(filename, generated)
        if own is not None:
            out[own] = out.get(own, 0.0) + tt
            continue
        if not callers:
            out["other"] = out.get("other", 0.0) + tt
        for (caller_file, _l, _n), edge in callers.items():
            pkg = _package_of(caller_file, generated) or "other"
            out[pkg] = out.get(pkg, 0.0) + edge[2]
    return out


def _calls(stats: Dict[Tuple, Tuple], owner, name: str) -> int:
    """Exact call count of ``owner.name`` in the profile; 0 once a refactor
    has removed or renamed it."""
    fn = getattr(owner, name, None)
    code = getattr(fn, "__code__", None)
    if code is None:
        return 0
    row = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    return row[1] if row else 0


def _profiled(wl: WorkloadDef, seed: int, n_ops: int,
              base: Repeat) -> Dict[str, dict]:
    prof = cProfile.Profile()
    rep = run_repeat(wl, seed, n_ops, read_back=False, profiler=prof)
    stats = pstats.Stats(prof).stats
    buckets = bucket_profile(stats, generated=rep.gen_file)
    total = sum(buckets.values())
    ops = rep.rec.attempted
    out = {f"{pkg}.host_share": metric(buckets.get(pkg, 0.0) / total, "ratio")
           for pkg in PACKAGES}
    out.update({
        "sim.timeouts_per_op": metric(
            _calls(stats, Timeout, "__init__") / ops, "count", ops),
        "sim.cpu_reschedules_per_op": metric(
            _calls(stats, CpuScheduler, "_reschedule") / ops, "count", ops),
        "sim.process_steps_per_op": metric(
            _calls(stats, Process, "_step") / ops, "count", ops),
        "obs.profile_host_overhead": metric(
            rep.host_us_per_op / base.host_us_per_op, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# Pass L: each layer's public functions, timed alone
# ---------------------------------------------------------------------------

def _per_call_us(fn: Callable[[], object], min_seconds: float,
                 calls_per_fn: int = 1) -> dict:
    """Host microseconds per call, in reference-host time: batches of about
    20 ms of calls, each between two calibration slices, for at least
    ``min_seconds``; the batch that needed fewest slices counts."""
    clock = time.process_time
    n, spent = 1, 0.0
    while True:                 # how many calls make a batch
        t0 = clock()
        for _ in range(n):
            fn()
        spent = clock() - t0
        if spent >= min(0.02, min_seconds):
            break
        n *= 2
    best, total, batches = float("inf"), 0.0, 0
    before = calibration_slice()
    while total < min_seconds:
        t0 = clock()
        for _ in range(n):
            fn()
        spent = clock() - t0
        after = calibration_slice()
        best = min(best, spent / ((before + after) / 2))
        before = after
        total += spent
        batches += 1
    return metric(best * CALIB_REF_S / (n * calls_per_fn) * 1e6, "us",
                  batches * n * calls_per_fn)


def _codec(gen, fn: str, args, result, min_seconds: float) -> Dict[str, dict]:
    """The primary op's request and reply through the generated structs and
    the binary protocol, both directions."""
    args_cls = getattr(gen, f"{fn}_args")
    result_cls = getattr(gen, f"{fn}_result")

    def encode() -> bytes:
        buf = TMemoryBuffer()
        prot = TBinaryProtocol(buf)
        for mtype, struct in ((TMessageType.CALL, args),
                              (TMessageType.REPLY, result)):
            prot.write_message_begin(fn, mtype, 1)
            struct.write(prot)
            prot.write_message_end()
        return buf.getvalue()

    wire = encode()

    def decode() -> list:
        prot = TBinaryProtocol(TMemoryBuffer(wire))
        out = []
        for cls in (args_cls, result_cls):
            prot.read_message_begin()
            out.append(cls().read(prot))
            prot.read_message_end()
        return out

    if decode() != [args, result]:
        raise AssertionError(f"{fn}: thrift round trip changed the message")
    return {"thrift.encode_us": _per_call_us(encode, min_seconds),
            "thrift.decode_us": _per_call_us(decode, min_seconds)}


def _sim_kernel(n_procs: int, min_seconds: float) -> Dict[str, dict]:
    """Cost of one timeout event and of one CpuScheduler.compute, with as
    many processes looping as the workload has clients."""
    iters = 200

    def timeouts() -> None:
        sim = Simulator()

        def loop(i):
            for _ in range(iters):
                yield sim.timeout(1e-6 * (1 + i % 3))
        for i in range(n_procs):
            sim.process(loop(i))
        sim.run()

    def computes() -> None:
        sim = Simulator()
        cpu = CpuScheduler(sim, 28)

        def loop(i):
            for _ in range(iters):
                yield cpu.compute(1e-6 * (1 + i % 3))
        for i in range(n_procs):
            sim.process(loop(i))
        sim.run()

    per_fn = n_procs * iters
    return {"sim.timeout_event_us": _per_call_us(timeouts, min_seconds,
                                                 per_fn),
            "sim.cpu.compute_event_us": _per_call_us(computes, min_seconds,
                                                     per_fn)}


def _kv_layers(bed: YcsbBed, min_seconds: float) -> Dict[str, dict]:
    """lmdb, ycsb and the hash ring on this workload's records."""
    env = Environment(sync_mode=SyncMode.NOSYNC)
    env.open_db("main")
    items = list(bed.oracle.loaded.items())
    with env.begin(write=True) as txn:
        for key, value in items:
            txn.put(key, value)
    next_key = itertools.cycle(k for k, _ in items[::37]).__next__

    def get() -> None:
        with env.begin() as txn:
            if txn.get(next_key()) is None:
                raise AssertionError("loaded key missing from lmdb")

    value = items[0][1]

    def put() -> None:
        with env.begin(write=True) as txn:
            txn.put(next_key(), value)

    ring = HashRing(len(bed.server_nodes), vnodes=256, seed=3)
    wl = Workload(bed.spec, seed=bed.seed)
    return {"lmdb.get_us": _per_call_us(get, min_seconds),
            "lmdb.put_us": _per_call_us(put, min_seconds),
            "ycsb.next_op_us": _per_call_us(wl.next_op, min_seconds),
            "hatkv.ring_lookup_us": _per_call_us(
                lambda: ring.shard_of(next_key()), min_seconds)}


def _layers(wl: WorkloadDef, seed: int, min_seconds: float) -> Dict[str, dict]:
    bed = wl.build(seed)
    fn, args, result = bed.codec_sample(wl.primary)
    out = _codec(bed.gen, fn, args, result, min_seconds)
    service, kw = bed.plan_args()
    out["core.plan_resolve_us"] = _per_call_us(
        lambda: service_plan_of(bed.gen, service, **kw), min_seconds)
    idl = wl.idl_text()
    compile_us = _per_call_us(lambda: load_idl(idl, "perfbench_idl_probe"),
                              min_seconds)
    out["idl.compile_ms"] = metric(compile_us["value"] / 1e3, "ms",
                                   compile_us["n"])
    out.update(_sim_kernel(wl.n_clients, min_seconds))
    if isinstance(bed, YcsbBed):
        out.update(_kv_layers(bed, min_seconds))
    return out


def run_all(wl: WorkloadDef, seed: int, scale: float) -> Dict[str, dict]:
    """Every per-layer metric of the three passes for one workload."""
    n_ops = scaled_ops(wl, scale * PASS_SHARE)
    base = run_repeat(wl, seed, n_ops, read_back=False)
    out = _traced(wl, seed, n_ops, base)
    out.update(_profiled(wl, seed, n_ops, base))
    out.update(_layers(wl, seed, 0.5 * min(1.0, scale)))
    return out
