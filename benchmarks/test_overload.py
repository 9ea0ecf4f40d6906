"""Graceful degradation under overload: admission control + QP mux + SRQ.

One SRQ-backed server (a single receive dispatcher, however many clients)
behind a priority-tiered admission gate; logical clients multiplex over
bounded MuxPool connections, far past the server's core count.  The sweep
drives offered load from near-saturation to heavy oversubscription and
checks the three graceful-degradation guarantees:

* throughput **plateaus** at the gate's capacity -- no collapse: every
  sweep point keeps >= 0.8x the peak goodput;
* overload surfaces as the typed ``REJECTED`` error (retryable, with the
  server's advised backoff), never as ``TIMED_OUT``;
* shedding follows the ``priority`` IDL hint: low-priority traffic is
  shed strictly before high-priority, whose goodput stays within 10% of
  its uncontended level.

Every sweep point runs on the phased harness: goodput is the class's
MEASUREMENT-window throughput (ops attributed to the phase they started
in), and each phase is emitted as an ``overload`` BenchRecord.  A sweep
point's total goodput is ``overload/overload.low<n>.measurement``'s
``tput_kops``; ``overload/graceful_degradation`` keeps the high-priority
retention, which no phase record holds.
"""

import random
from dataclasses import replace

import pytest

from benchmarks.figutil import emit_bench, fmt_rows, is_full, kops
from repro.bench import Phase, PhasedRun, metric
from repro.core.mux import MuxPool
from repro.core.overload import AdmissionConfig
from repro.core.resilience import RetryBudget, RetryPolicy
from repro.core.runtime import HatRpcServer, service_plan_of
from repro.idl import load_idl
from repro.sim.core import AllOf
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TRejectedException, TTransportException

IDL = """
service OverloadSvc {
    hint: concurrency = 64, perf_goal = throughput;

    string HighOp(1: string k) [ hint: priority = high; ]
    string LowOp(1: string k) [ hint: priority = low; ]
}
"""

SERVICE = "OverloadSvc"
HANDLER_TIME = 100 * us          # simulated work per request
CAPACITY = 48                    # admission gate capacity (in-flight)
HIGH_CLIENTS = 8                 # fixed high-priority population
LOW_SWEEP = [16, 32, 64, 128, 256, 512] if is_full() else [16, 64, 256]
POOL_SIZE = 4                    # wire connections per (node, service) pool
WARMUP = 2 * ms
MEASURE = 10 * ms
COOLDOWN = 0.5 * ms
CORES = 28                       # NodeSpec default, for the oversub claim

_COUNTER = [0]


def _gen():
    _COUNTER[0] += 1
    return load_idl(IDL, f"overload_bench_gen_{_COUNTER[0]}")


class Handler:
    def __init__(self, tb):
        self.tb = tb

    def HighOp(self, k):
        yield self.tb.sim.timeout(HANDLER_TIME)
        return k

    def LowOp(self, k):
        yield self.tb.sim.timeout(HANDLER_TIME)
        return k


def _plan(gen):
    """The hinted plan with every RDMA channel forced onto eager_sendrecv
    (the protocol the SRQ server path serves) and a pipelined window.
    Routes -- and with them the resolved priority hints -- are untouched."""
    plan = service_plan_of(gen, SERVICE, pipeline=True)
    channels = tuple(
        replace(ch, protocol="eager_sendrecv", window=16)
        if ch.transport == "rdma" else ch
        for ch in plan.channels)
    return replace(plan, channels=channels)


def _run_point(n_low, n_high=HIGH_CLIENTS):
    """One sweep point; returns per-class goodput and aggregate fault/gate
    counters."""
    gen = _gen()
    tb = Testbed(n_nodes=4)
    plan = _plan(gen)
    gate_cfg = AdmissionConfig(capacity=CAPACITY, low_fraction=0.25,
                               normal_fraction=0.8,
                               retry_after_base=200 * us)
    server = HatRpcServer(tb.node(0), gen, SERVICE, Handler(tb), plan=plan,
                          admission=gate_cfg, srq=True, srq_slots=512)
    server.start()

    run = PhasedRun(tb.sim, name=f"overload.low{n_low}", warmup=WARMUP,
                    measurement=MEASURE, cooldown=COOLDOWN)
    client_nodes = [1, 2, 3]
    pools = []
    engines = []

    def make_pool(node_idx, seed):
        budget = RetryBudget(tb.sim, cap=16.0, refill_rate=1000.0)
        pool = MuxPool(tb.node(node_idx), gen, SERVICE, size=POOL_SIZE,
                       plan=plan, rng=random.Random(seed),
                       retry_budget=budget, deadline=5 * ms,
                       retry_policy=RetryPolicy(max_attempts=3,
                                                base_backoff=50 * us,
                                                jitter=0.1))
        pools.append(pool)
        return pool

    procs = []

    def logical(pool, fn, cls):
        lease = pool.lease()
        while not run.stopped:
            t0 = tb.sim.now
            try:
                yield from lease.call(fn, "k")
                run.record(cls, tb.sim.now - t0, start=t0)
            except TRejectedException as exc:
                # honor the advice before offering the request again
                yield tb.sim.timeout(max(exc.retry_after, 100 * us))
        lease.release()

    def prepare():
        low_pools = [make_pool(n, 10 + n) for n in client_nodes]
        high_pool = make_pool(1, 99)
        for pool in pools:
            yield from pool.connect(tb.node(0))
        engines.extend(e for pool in pools for e in pool.engines)
        procs.extend(tb.sim.process(logical(high_pool, "HighOp", "high"))
                     for _ in range(n_high))
        procs.extend(tb.sim.process(logical(low_pools[i % 3], "LowOp", "low"))
                     for i in range(n_low))

    driver = tb.sim.process(run.drive(prepare=prepare()))
    tb.sim.run(until=driver)
    if procs:
        tb.sim.run(until=AllOf(tb.sim, procs))
    for p in procs:
        p.value  # surface any client failure instead of undercounting
    run.stop()
    tb.sim.run()
    run.emit_phase_records("overload",
                           config={"n_low": n_low, "n_high": n_high,
                                   "capacity": CAPACITY})

    meas = run.stats[Phase.MEASUREMENT]
    duration = run.window(Phase.MEASUREMENT).duration

    def goodput(cls):
        st = meas.get(cls)
        return (st.count if st is not None else 0) / duration

    gate = server.gate
    faults = {"timeouts": sum(e.faults.timeouts for e in engines),
              "rejections": sum(e.faults.rejections for e in engines),
              "budget_exhausted": sum(e.faults.budget_exhausted
                                      for e in engines)}
    return {
        "high_goodput": goodput("high"),
        "low_goodput": goodput("low"),
        "total_goodput": goodput("high") + goodput("low"),
        "faults": faults,
        "shed": dict(gate.shed_by_priority),
        "gate_high_water": gate.high_water,
    }


def _run():
    out = {"uncontended": _run_point(0)}
    for n_low in LOW_SWEEP:
        out[n_low] = _run_point(n_low)
    return out


def test_overload_graceful_degradation(benchmark):
    res = benchmark.pedantic(_run, rounds=1, iterations=1)
    base_high = res["uncontended"]["high_goodput"]
    fmt_rows(
        f"Overload sweep: {HIGH_CLIENTS} high-pri clients + N low-pri over "
        f"{CORES}-core server, gate capacity {CAPACITY}",
        ["low clients", "total goodput", "high goodput", "low goodput",
         "rejections", "shed low", "shed high"],
        [[n, kops(r["total_goodput"]), kops(r["high_goodput"]),
          kops(r["low_goodput"]), r["faults"]["rejections"],
          r["shed"]["low"], r["shed"]["high"]]
         for n, r in res.items() if n != "uncontended"])
    print(f"   uncontended high-pri goodput: {kops(base_high)}")

    benchmark.extra_info["goodput_kops"] = {
        str(n): round(r["total_goodput"] / 1e3, 1)
        for n, r in res.items()}
    emit_bench("overload", "graceful_degradation",
               {"high_goodput_retention":
                    metric(round(min(res[n]["high_goodput"]
                                     for n in LOW_SWEEP) / base_high, 3),
                           unit="ratio")},
               config={"low_sweep": LOW_SWEEP, "high_clients": HIGH_CLIENTS,
                       "capacity": CAPACITY, "pool_size": POOL_SIZE,
                       "handler_us": HANDLER_TIME / us})

    # -- the three graceful-degradation guarantees ---------------------------
    peak = max(res[n]["total_goodput"] for n in LOW_SWEEP)
    for n in LOW_SWEEP:
        r = res[n]
        # 1. plateau, not collapse: every point holds >= 0.8x peak.
        assert r["total_goodput"] >= 0.8 * peak, (
            f"{n} low clients: goodput {r['total_goodput']:.0f}/s collapsed "
            f"below 0.8x peak {peak:.0f}/s")
        # 2. overload is typed rejection, never timeout.
        assert r["faults"]["timeouts"] == 0, (
            f"{n} low clients: {r['faults']['timeouts']} TIMED_OUT errors")
        # 3. shed order: high never shed while low is.
        assert r["shed"]["high"] == 0
        # high-priority goodput within 10% of its uncontended level.
        assert r["high_goodput"] >= 0.9 * base_high, (
            f"{n} low clients: high-pri goodput {r['high_goodput']:.0f}/s "
            f"fell >10% below uncontended {base_high:.0f}/s")
    heavy = res[LOW_SWEEP[-1]]
    assert LOW_SWEEP[-1] + HIGH_CLIENTS > CORES  # genuinely oversubscribed
    assert heavy["faults"]["rejections"] > 0     # the gate actually engaged
    assert heavy["shed"]["low"] > 0              # ...by shedding low first
