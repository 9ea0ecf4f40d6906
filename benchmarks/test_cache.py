"""Cached vs uncached phased YCSB-B: the ``cacheable`` hint's payoff.

Two phased runs against identical 2-shard clusters -- one with Get marked
``cacheable(ttl)`` (per-*node* shared
:class:`~repro.hatkv.cache.HotKeyCache`, the per-machine shape), one with
the cache opted out -- under a hot zipfian skew where client-side leases
should pay.  Every stub in **both** legs is wrapped in a zero-stale
oracle: writes are serialized per key and stamped with a global sequence
number, reads capture the last *acknowledged* sequence at issue time, and
any reply older than that floor is a stale read.  The lease protocol's
whole claim is that the speedup costs no freshness, so the gate is joint:

* MEASUREMENT throughput cache-on >= 1.3x cache-off;
* zero stale reads in either leg (thousands of checked ops);
* fewer server requests per client op (the server-CPU proxy: hits never
  reach a shard).

A second cell replays the ISSUE's storm shape: a leased hot key warmed on
several client nodes takes a Put burst from another node; every post-ack
read must observe the acknowledged value, and each ack must land within
one lease of its issue (the server write barrier never waits out more
than the epoch horizon).
"""

import os
import tempfile

from benchmarks.figutil import emit_bench, fmt_rows, is_full, kops
from benchmarks.oracle import OracleStub, StaleOracle
from repro import obs
from repro.bench import Phase, PhasedRun, Scenario, metric
from repro.hatkv import ShardedKVCluster, load_hatkv_module
from repro.hatkv.client import cache_for
from repro.obs import JsonlSink, MetricsRegistry, MetricsSampler, read_stream
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.ycsb import run_ycsb_phased, scenario_spec
from repro.ycsb.phased import measurement_result
from repro.ycsb.workload import OpType, WorkloadSpec

SHARDS = 2
N_CLIENTS = 48
#: Few client nodes on purpose: the cache is per *machine*, so read
#: density per cache (and the hit rate) scales with clients per node.
N_CLIENT_NODES = 2
TTL = 50 * us
WARMUP = 1 * ms
MEASURE = 4 * ms if is_full() else 2 * ms
COOLDOWN = 0.25 * ms
SAMPLE_EVERY = 100 * us
GATE_SPEEDUP = 1.3
BURST = 12                       # storm-cell writes to the one hot key

#: One calm cell at a hot skew: leases only pay where reads concentrate.
SCENARIO = Scenario("zipf1.2/v100/calm", skew=1.2, value_size=100)

#: Repo WORKLOAD_B folds MultiGet into the read mix; big-batch replies
#: carry no versions (never admitted), so the cacheable leg is measured
#: on the per-key Get/Put mix the lease protocol actually covers.
B_HOT = WorkloadSpec("B-hot", ((OpType.GET, 0.95), (OpType.PUT, 0.05)))

_CACHE_COUNTERS = ("hits", "misses", "invalidations", "lease_expiries")


def _stream_path(leg: str) -> str:
    """CI sets REPRO_STREAM_OUT; each leg streams beside it."""
    out = os.environ.get("REPRO_STREAM_OUT")
    if out:
        root, ext = os.path.splitext(out)
        return f"{root}.{leg}{ext or '.jsonl'}"
    return os.path.join(tempfile.gettempdir(), f"cache_ycsb_{leg}.jsonl")


# -- the zero-stale oracle ----------------------------------------------------
# StaleOracle / OracleStub live in benchmarks.oracle so the resize
# benchmark can reuse the identical freshness checks.


# -- the two phased legs ------------------------------------------------------

def _leg(cached: bool):
    leg = "on" if cached else "off"
    scenario = SCENARIO
    spec = scenario_spec(B_HOT, scenario)
    reg = MetricsRegistry()
    with obs.installed(reg):
        tb = Testbed(n_nodes=SHARDS + 9)
        gen = load_hatkv_module(
            "function",
            cacheable={"ttl": TTL} if cached else None)
        cluster = ShardedKVCluster(tb, SHARDS, gen_module=gen).start()
        oracle = StaleOracle(tb.sim)
        node_caches = {}

        def connect(node):
            if cached:
                shared = node_caches.get(node.name)
                if shared is None:
                    # One cache per client *node*: every client process
                    # on a machine reads through (and invalidates) it.
                    shared = node_caches[node.name] = cache_for(node, gen)
                router = yield from cluster.connect(node, cache=shared)
            else:
                router = yield from cluster.connect(node, cache=False)
            return OracleStub(router, oracle)

        sampler = MetricsSampler(tb.sim, reg, interval=SAMPLE_EVERY,
                                 sink=JsonlSink(_stream_path(leg)))
        run = PhasedRun(tb.sim, name=f"ycsb_cache/{leg}/{scenario.name}",
                        warmup=WARMUP, measurement=MEASURE,
                        cooldown=COOLDOWN, registry=reg, sampler=sampler)
        req_marks = {}

        def on_phase(phase, t):
            # cluster.requests at each phase edge: MEASUREMENT's server
            # load is the COOLDOWN mark minus the MEASUREMENT mark.
            req_marks[phase.value] = cluster.requests

        run.on_phase.append(on_phase)
        run_ycsb_phased(cluster, connect, spec, testbed=tb, run=run,
                        n_clients=N_CLIENTS, n_client_nodes=N_CLIENT_NODES)
    meas_reqs = req_marks[Phase.COOLDOWN.value] \
        - req_marks[Phase.MEASUREMENT.value]
    ops = run.ops(Phase.MEASUREMENT)
    return {
        "leg": leg,
        "run": run,
        "result": measurement_result(run),
        "oracle": oracle,
        "req_per_op": meas_reqs / ops if ops else float("inf"),
        "cache": {name: reg.counter(f"hatkv.cache.{name}").value
                  for name in _CACHE_COUNTERS},
        "write_stalls": reg.counter("hatkv.lease.write_stalls").value,
        "stream": list(read_stream(_stream_path(leg))),
        "config": scenario.config(),
    }


def _run():
    return _leg(False), _leg(True)


def test_cached_ycsb_b_speedup_with_zero_stale_reads(benchmark):
    off, on = benchmark.pedantic(_run, rounds=1, iterations=1)

    def row(r):
        res = r["result"]
        get = res.per_op[OpType.GET]
        put = res.per_op[OpType.PUT]
        return [r["leg"], kops(res.throughput_ops),
                f"{get.mean / us:6.1f}us", f"{put.mean / us:6.1f}us",
                f"{r['req_per_op']:5.2f}", f"{r['cache']['hits']:6d}",
                f"{r['oracle'].stale}/{r['oracle'].checked}"]

    fmt_rows(f"Cached YCSB-B ({SHARDS} shards, {N_CLIENTS} clients on "
             f"{N_CLIENT_NODES} nodes, ttl={TTL / us:.0f}us)",
             ["leg", "tput", "get-mean", "put-mean", "srv-req/op",
              "hits", "stale/checked"],
             [row(off), row(on)])
    c = on["cache"]
    fmt_rows("Cache counters (cache-on leg)",
             list(_CACHE_COUNTERS) + ["write_stalls"],
             [[c[n] for n in _CACHE_COUNTERS] + [on["write_stalls"]]])

    off_tput = off["result"].throughput_ops
    on_tput = on["result"].throughput_ops
    speedup = on_tput / off_tput
    benchmark.extra_info["speedup"] = round(speedup, 3)
    for r in (off, on):
        r["run"].emit_phase_records("cache", f"ycsb_b_{r['leg']}",
                                    config=r["config"])
    emit_bench("cache", "ycsb_b_cached",
               {"speedup": metric(round(speedup, 3), unit="x"),
                "srv_req_per_op.cache_on": metric(
                    round(on["req_per_op"], 3), unit="req/op"),
                "stale_reads": metric(
                    off["oracle"].stale + on["oracle"].stale, unit="ops"),
                "cache_hits": metric(c["hits"], unit="ops")},
               config={"shards": SHARDS, "n_clients": N_CLIENTS,
                       "n_client_nodes": N_CLIENT_NODES,
                       "ttl_us": TTL / us, **on["config"]})

    # -- the acceptance gates ------------------------------------------------
    # Both legs did real measured work and attributed every op.
    for r in (off, on):
        assert r["run"].unattributed == 0
        assert r["run"].ops(Phase.MEASUREMENT) > 0
        # The oracle checked thousands of reads and found zero stale:
        # every Get observed a value at least as new as the last
        # acknowledged Put for its key at issue time.
        assert r["oracle"].checked > 1000
        assert r["oracle"].stale == 0, r["oracle"].first_stale
        samples = [s for s in r["stream"] if s.get("type") == "sample"]
        assert len(samples) >= 10 and \
            all("phase" in s["tags"] for s in samples)
    # The hint paid: hot-set hits drive client throughput past the gate.
    assert speedup >= GATE_SPEEDUP, \
        f"cache-on {kops(on_tput)} vs off {kops(off_tput)}: {speedup:.2f}x"
    # And the server did strictly less work per client op (CPU proxy).
    assert on["req_per_op"] < off["req_per_op"]
    # The cache actually cycled: hits, write invalidations, and leases
    # aging out on the sim clock.
    assert c["hits"] > 0 and c["invalidations"] > 0
    assert c["lease_expiries"] > 0
    # The uncached leg never touched a cache.
    assert off["cache"]["hits"] == 0 and off["cache"]["misses"] == 0


# -- the storm cell -----------------------------------------------------------

def _storm_cell():
    reg = MetricsRegistry()
    out = {"stale": 0, "acks": [], "reads": 0}
    with obs.installed(reg):
        tb = Testbed(n_nodes=SHARDS + 6)
        gen = load_hatkv_module(
            "function", cacheable={"ttl": TTL})
        cluster = ShardedKVCluster(tb, SHARDS, gen_module=gen).start()
        hot = b"hot-key-0000000000000000"
        free = [n for n in tb.nodes if n not in cluster.nodes]

        def cell():
            readers = []
            for node in free[:4]:
                r = yield from cluster.connect(node,
                                               cache=cache_for(node, gen))
                readers.append(r)
            writer = yield from cluster.connect(free[4], cache=False)
            yield from writer.Put(hot, b"%03d" % 0)
            yield tb.sim.timeout(2 * TTL)
            # Warm every reader until its cache provably serves the key:
            # all readers' leases share the server's per-key epoch, so a
            # single admit+hit pair can straddle an epoch edge -- retry.
            hits = reg.counter("hatkv.cache.hits")
            for r in readers:
                before = hits.value
                for _ in range(8):
                    yield from r.Get(hot)
                    if hits.value > before:
                        break
                assert hits.value > before, "reader cache never warmed"
            for i in range(1, BURST + 1):
                t0 = tb.sim.now
                yield from writer.Put(hot, b"%03d" % i)
                out["acks"].append(tb.sim.now - t0)
                for r in readers:
                    res = yield from r.Get(hot)
                    out["reads"] += 1
                    if not res.found or res.value != b"%03d" % i:
                        out["stale"] += 1

        tb.sim.run(tb.sim.process(cell()))
    out["cache"] = {name: reg.counter(f"hatkv.cache.{name}").value
                    for name in _CACHE_COUNTERS}
    out["write_stalls"] = reg.counter("hatkv.lease.write_stalls").value
    return out


def test_put_burst_invalidates_every_cache_within_one_lease(benchmark):
    out = benchmark.pedantic(_storm_cell, rounds=1, iterations=1)
    acks = out["acks"]
    fmt_rows(f"Put-burst storm cell ({BURST} writes, 4 warmed reader "
             f"nodes, ttl={TTL / us:.0f}us)",
             ["post-ack reads", "stale", "ack-max", "ack-mean",
              "write_stalls", "expiries+inval"],
             [[out["reads"], out["stale"],
               f"{max(acks) / us:6.1f}us",
               f"{sum(acks) / len(acks) / us:6.1f}us",
               out["write_stalls"],
               out["cache"]["lease_expiries"]
               + out["cache"]["invalidations"]]])
    emit_bench("cache", "put_burst_storm",
               {"stale_reads": metric(out["stale"], unit="ops"),
                "ack_max_us": metric(round(max(acks) / us, 2), unit="us")},
               config={"burst": BURST, "ttl_us": TTL / us})
    # Every read issued after a Put acked saw that Put's value -- on all
    # reader nodes, including ones whose cached entry was only ever
    # dropped by lease expiry (the server barrier outwaits them).
    assert out["reads"] == BURST * 4
    assert out["stale"] == 0
    # The caches were genuinely in play and genuinely cycled.
    assert out["cache"]["hits"] >= 4
    assert out["cache"]["lease_expiries"] + out["cache"]["invalidations"] > 0
    # "Within one lease": no ack waited out more than the epoch horizon
    # (one ttl from the epoch's first grant) plus RPC slack -- the write
    # barrier is bounded, writers can't be starved by read bursts.
    assert max(acks) <= TTL + 100 * us, f"{max(acks) / us:.1f}us"
    # And the barrier provably engaged at least once (a leased entry was
    # outwaited rather than served stale).
    assert out["write_stalls"] >= 1
