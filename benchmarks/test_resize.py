"""Elastic resize under live YCSB-B: grow the ring mid-MEASUREMENT.

One phased run against a 2-shard cached HatKV cluster; a
:class:`~repro.hatkv.migration.ResizeTrigger` watches the live
``hatkv.keys.shard<i>`` balance probe and -- restricted to the
MEASUREMENT phase -- fires a 2 -> 4 resize while the YCSB-B clients keep
issuing.  Every stub is wrapped in the zero-stale oracle from
:mod:`benchmarks.oracle`, so the elastic-resharding claim is gated end
to end:

* **zero lost / duplicated keys**: after the run every loaded key sits
  on exactly its new-ring owner, once;
* **zero stale reads**: thousands of oracle-checked reads across the
  copy, cutover, and forwarding windows, none older than its acked
  floor (and cached replies never regress a key's version);
* **bounded p99 disturbance**: a GET-p99 SLO scoped to MEASUREMENT must
  see no sustained violation while ranges fence and flip;
* **progress is observable**: the JSONL stream's
  ``hatkv.migration.pct_done`` probe walks to 100 and the migration
  events land as stream annotations.

A second, smaller cell (2 -> 3, fewer clients) is the CI migration
smoke: same oracle, same placement gates, sized to run in seconds.
"""

import os
import tempfile

from benchmarks.figutil import emit_bench, fmt_rows, is_full, kops, \
    tput_metric
from benchmarks.oracle import OracleStub, StaleOracle
from repro import obs
from repro.bench import Phase, PhasedRun, Scenario, metric
from repro.hatkv import ResizeTrigger, ShardedKVCluster, load_hatkv_module
from repro.hatkv.client import cache_for
from repro.obs import JsonlSink, MetricsRegistry, MetricsSampler, SloSpec, \
    SloWatchdog, read_stream
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.ycsb import WORKLOAD_B, run_ycsb_phased, scenario_spec
from repro.ycsb.phased import measurement_result
from repro.ycsb.workload import OpType

SHARDS = 2
TARGET = 4
TTL = 50 * us
WARMUP = 0.75 * ms
MEASURE = 4 * ms if is_full() else 3 * ms
COOLDOWN = 0.5 * ms
SAMPLE_EVERY = 50 * us
#: Modest vnode count: the migration fences one arc at a time, so the
#: range count (|moved vnodes| coalesced) is the p99-disturbance knob.
VNODES = 32
#: GET p99 ceiling while ranges fence and flip.  The sampled p99 sits
#: in the ~16 us bucket at steady state and peaks in the ~66 us bucket
#: while a fence parks one arc's writers; the ceiling asserts the
#: disturbance never escalates into the next latency regime.
SLO_GET_P99 = 80 * us
SLO_SUSTAIN = 300 * us

#: One YCSB-B cell at default skew; the resize is the event under test.
SCENARIO = Scenario("zipf0.99/v100/calm", skew=0.99, value_size=100)


def _stream_path(tag: str) -> str:
    """CI sets REPRO_STREAM_OUT; each cell streams beside it."""
    out = os.environ.get("REPRO_STREAM_OUT")
    if out:
        root, ext = os.path.splitext(out)
        return f"{root}.{tag}{ext or '.jsonl'}"
    return os.path.join(tempfile.gettempdir(), f"resize_ycsb_{tag}.jsonl")


def _elastic(target: int, *, n_clients: int, n_client_nodes: int,
             measure: float, vnodes: int, tag: str):
    """One phased YCSB-B run that grows SHARDS -> ``target`` mid-run."""
    scenario = SCENARIO
    spec = scenario_spec(WORKLOAD_B, scenario)
    reg = MetricsRegistry()
    events = []
    with obs.installed(reg):
        tb = Testbed(n_nodes=target + n_client_nodes + 1)
        gen = load_hatkv_module(
            "function", cacheable={"ttl": TTL})
        cluster = ShardedKVCluster(
            tb, SHARDS, gen_module=gen, vnodes=vnodes,
            reserve_nodes=tb.nodes[SHARDS:target]).start()
        oracle = StaleOracle(tb.sim)
        node_caches = {}

        def connect(node):
            shared = node_caches.get(node.name)
            if shared is None:
                # One cache per client *node* (the per-machine shape);
                # range cutovers invalidate it epoch-tagged.
                shared = node_caches[node.name] = cache_for(node, gen)
            router = yield from cluster.connect(node, cache=shared)
            return OracleStub(router, oracle)

        sampler = MetricsSampler(tb.sim, reg, interval=SAMPLE_EVERY,
                                 sink=JsonlSink(_stream_path(tag)))
        run = PhasedRun(tb.sim, name=f"ycsb_resize/{tag}/{scenario.name}",
                        warmup=WARMUP, measurement=measure,
                        cooldown=COOLDOWN, registry=reg, sampler=sampler)
        watchdog = SloWatchdog(
            [SloSpec("get-p99", "bench.op_latency.get.p99", "<",
                     SLO_GET_P99, sustain=SLO_SUSTAIN,
                     phases=(Phase.MEASUREMENT.value,),
                     description="GET p99 bounded through the resize")],
            registry=reg).attach(sampler)
        # Load-aware trigger: mean keys/shard is ~record_count/SHARDS
        # right after the bulk load, so the balance gauge crosses this
        # at the first MEASUREMENT sample and the resize fires mid-run.
        trigger = ResizeTrigger(
            cluster, target,
            keys_per_shard=0.8 * spec.record_count / SHARDS,
            phase=Phase.MEASUREMENT.value).attach(sampler)

        def note(kind, **attrs):
            events.append({"kind": kind, "t": tb.sim.now, **attrs})
            sampler.event(kind, **attrs)

        cluster.on_migration.append(note)
        run_ycsb_phased(cluster, connect, spec, testbed=tb, run=run,
                        n_clients=n_clients, n_client_nodes=n_client_nodes)

    # Final placement, key by key: every loaded key on exactly its
    # new-ring owner, no shard holding a key it does not own.
    placed, misplaced, dupes = {}, 0, 0
    for shard, srv in enumerate(cluster.servers):
        with srv.backend.env.begin() as txn:
            for k, _v in txn.cursor().scan():
                if k in placed:
                    dupes += 1
                placed[k] = shard
                if cluster.ring.shard_of(k) != shard:
                    misplaced += 1
    by_kind = {e["kind"]: e for e in events}
    return {
        "tag": tag,
        "run": run,
        "result": measurement_result(run),
        "oracle": oracle,
        "trigger": trigger,
        "events": events,
        "by_kind": by_kind,
        "watchdog": watchdog,
        "cluster": cluster,
        "spec": spec,
        "placed": placed,
        "misplaced": misplaced,
        "dupes": dupes,
        "forward_reads": reg.counter("hatkv.router.forward_reads").value,
        "stream": list(read_stream(_stream_path(tag))),
        "config": {"shards_from": SHARDS, "shards_to": target,
                   "vnodes": vnodes, "n_clients": n_clients,
                   "n_client_nodes": n_client_nodes,
                   "ttl_us": TTL / us, **scenario.config()},
    }


def _migration_ms(r) -> float:
    return (r["by_kind"]["resize_done"]["t"]
            - r["by_kind"]["resize_start"]["t"]) / ms


def _assert_elastic_invariants(r):
    """The gates both cells share: nothing lost, nothing duplicated,
    nothing stale, and the resize genuinely ran mid-MEASUREMENT."""
    run, cluster, trigger = r["run"], r["cluster"], r["trigger"]
    assert run.unattributed == 0
    assert run.ops(Phase.MEASUREMENT) > 0
    # The trigger fired exactly once, off the key-balance gauge, inside
    # the MEASUREMENT window -- and the resize ran to completion.
    assert trigger.fired and trigger.fired_at is not None
    assert WARMUP <= trigger.fired_at
    assert cluster.n_shards == r["config"]["shards_to"]
    assert cluster.migration is None
    for kind in ("resize_start", "resize_cutover_complete",
                 "cleanup_done", "resize_done"):
        assert kind in r["by_kind"], f"missing migration event {kind}"
    # Zero lost / duplicated / misplaced keys (replicas=1: each key on
    # exactly its new-ring owner).  WORKLOAD_B never inserts or deletes,
    # so the loaded keyset is the exact survivor set.
    assert len(r["placed"]) == r["spec"].record_count
    assert r["dupes"] == 0 and r["misplaced"] == 0
    # Zero stale reads across copy, cutover, and forwarding windows.
    assert r["oracle"].checked > 1000
    assert r["oracle"].stale == 0, r["oracle"].first_stale
    # The stream carried phase-tagged samples, the migration events, and
    # the per-range progress probe walking to 100%.
    samples = [s for s in r["stream"] if s.get("type") == "sample"]
    assert samples and all("phase" in s["tags"] for s in samples)
    stream_events = {s["kind"] for s in r["stream"]
                     if s.get("type") == "event"}
    assert "resize_start" in stream_events \
        and "resize_done" in stream_events
    pcts = [s["metrics"]["hatkv.migration.pct_done"] for s in samples
            if "hatkv.migration.pct_done" in s["metrics"]]
    assert pcts and pcts[-1] == 100.0
    # ... and the walk is visible: some sample caught it mid-flight.
    assert any(0.0 < p < 100.0 for p in pcts), \
        "no sample observed the migration in progress"
    assert max(pcts) == 100.0 and pcts == sorted(pcts)


# -- the figure cell: 2 -> 4 mid-MEASUREMENT ----------------------------------

def _run_elastic():
    return _elastic(TARGET, n_clients=32, n_client_nodes=4,
                    measure=MEASURE, vnodes=VNODES, tag="grow4")


def test_elastic_resize_mid_measurement_is_lossless(benchmark):
    r = benchmark.pedantic(_run_elastic, rounds=1, iterations=1)
    res = r["result"]
    get = res.per_op[OpType.GET]
    prog = r["cluster"]._last_plan.progress()
    fmt_rows(f"Elastic resize {SHARDS} -> {TARGET} mid-MEASUREMENT "
             f"({VNODES} vnodes, 32 clients)",
             ["tput", "get-p99", "migr-ms", "ranges", "keys-moved",
              "fwd-reads", "stale/checked"],
             [[kops(res.throughput_ops), f"{get.p99 / us:6.1f}us",
               f"{_migration_ms(r):6.2f}ms", int(prog["ranges_total"]),
               int(prog["keys_moved"]), r["forward_reads"],
               f"{r['oracle'].stale}/{r['oracle'].checked}"]])
    r["run"].emit_phase_records("resize", "ycsb_b_elastic",
                                config=r["config"])
    emit_bench("resize", "ycsb_b_elastic",
               {"migration_ms": metric(round(_migration_ms(r), 3),
                                       unit="ms"),
                "keys_moved": metric(int(prog["keys_moved"]), unit="keys"),
                "stale_reads": metric(r["oracle"].stale, unit="ops"),
                "slo_violations": metric(len(r["watchdog"].violations),
                                         unit="count")},
               config=r["config"])

    _assert_elastic_invariants(r)
    # The whole migration -- copy, per-range fences, forwarding window,
    # cleanup -- fit inside the MEASUREMENT window it started in.
    assert r["by_kind"]["resize_done"]["t"] <= WARMUP + MEASURE
    # Bounded p99 disturbance: the SLO scoped to MEASUREMENT never saw a
    # sustained breach while ranges fenced and flipped.
    assert r["watchdog"].violations == [], r["watchdog"].report()
    # The migration moved real volume (about half the keyspace for
    # 2 -> 4) and the per-range accounting agrees with what landed.
    assert int(prog["ranges_total"]) > 0
    assert prog["keys_moved"] >= 0.3 * r["spec"].record_count
    assert prog["inflight_writes"] == 0


# -- the CI smoke cell: 2 -> 3, sized for seconds -----------------------------

def _run_smoke():
    return _elastic(3, n_clients=16, n_client_nodes=2,
                    measure=1.5 * ms, vnodes=24, tag="grow3")


def test_resize_smoke_2_to_3_zero_stale(benchmark):
    r = benchmark.pedantic(_run_smoke, rounds=1, iterations=1)
    res = r["result"]
    prog = r["cluster"]._last_plan.progress()
    fmt_rows("Migration smoke 2 -> 3 (YCSB-B, zero-stale oracle)",
             ["tput", "migr-ms", "keys-moved", "stale/checked"],
             [[kops(res.throughput_ops), f"{_migration_ms(r):6.2f}ms",
               int(prog["keys_moved"]),
               f"{r['oracle'].stale}/{r['oracle'].checked}"]])
    emit_bench("resize", "smoke_2_to_3",
               {"stale_reads": metric(r["oracle"].stale, unit="ops"),
                "keys_moved": metric(int(prog["keys_moved"]), unit="keys"),
                "tput_kops": tput_metric(res.throughput_ops)},
               config=r["config"])
    _assert_elastic_invariants(r)
