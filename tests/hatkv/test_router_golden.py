"""Golden digest of the HatKV router: the refactoring oracle perfbench lacks.

perfbench drives :class:`~repro.hatkv.sharding.ShardRouter` with
``cache=False``, no faults and no resize, so the cached, failover,
forwarding-window and ``Scan`` / ``Delete`` paths have no pinned answer
there.  This file pins them: one seeded program, run under two seeds, on a
2-shard ``replicas=2`` cluster with a ``cacheable(ttl)`` module -- eight
clients on two nodes, each node's clients sharing one
:class:`~repro.hatkv.cache.HotKeyCache`, all six router methods, a
``LinkFlap`` on shard 0 under static-ring traffic (read failover, swept
in-flight reads, failed writes), then a 2 -> 3 grow with a second flap
inside its forwarding window and a 3 -> 2 shrink while the clients keep
going.  Neither seed reaches every path alone; together they do.

The digest is a sha256 over ``(client, op, repr(latency), result)`` per
operation in completion order, so an edit that moves any reply by one ulp,
swaps two same-time completions, changes which wire driver a leg rides or
which shard answers fails here.  The constants were captured at the commit
*before* the router was rewritten (ISSUE 19) and checked there in two fresh
interpreters under ``PYTHONHASHSEED`` 1 and 2.  ``counters`` is every
``hatkv.*`` counter of the run.  ``events`` was refreshed (everything else kept) when a CPU job
with a core of its own became one heap entry, when a work request's wire
phases became callbacks on the heap, and when a receive ring became one
WR-list post and a MultiGet's key descents one CPU job (115 734 / 119 298
to 100 623 / 103 541 at seeds 2 / 20).  Every constant was
refreshed once when the throughput-hinted backend got real group commit
and a resize began counting the writes already in flight when it starts;
that also moved the grow's last flip to 3.47 / 3.55 ms, so the second flap
moved from 3.5 to 3.7 ms to stay after it.  Every constant was refreshed
once more when the engine's swept-call takeover was removed and every read
failover went through the router's walk (errors 12 / 15 to 10 / 15,
``read_failovers`` 3 / 8 to 33 / 39; the grow's last flip moved to 3.52 /
3.69 ms, still before the second flap).  Every constant was refreshed
once more when the router's per-key batch methods were removed and the
program's ``multi_get`` / ``multi_put`` became ``MultiGet`` (12 keys) /
``MultiPut`` (ops 985 / 1 021 to 1 069 / 1 134, events 98 597 / 103 349
to 61 437 / 65 842; the grow's last flip moved to 3.425 / 3.459 ms, so
the second flap stays at 3.7 ms).  Every constant was refreshed once
more when a ``MultiGet`` miss inside the forwarding window began taking
``Get``'s forward read (``forward_reads`` 0 / 9 to 3 / 31, ops 1 069 /
1 134 to 1 063 / 1 133, errors 10 / 11 to 11 / 11; the grow's last flip
stays at 3.425 / 3.459 ms).  ``events`` was refreshed once more
(everything else kept, under ``PYTHONHASHSEED`` 1 and 2) when a thread's
back-to-back CPU charges became one job, a port's RX side was booked as
the packet leaves and an event-mode wake-up came to carry its interrupt
latency (61 633 / 66 204 to 45 966 / 49 380).  If you mean to change the model,
say so in the PR and refresh the constants together with
``perfbench/baseline_seed0.json`` and ``BENCH_BASELINE.json``.  Other seeds
can still crash the resize itself (a flap during a range copy kills the
copy stream): that is ROADMAP item 2's to find and fix, and why the seeds
here are picked, not swept.

Run this file as a script to print the run's fingerprint as JSON.
"""

import hashlib
import json
import random

import pytest

from repro import obs
from repro.core.resilience import RetryPolicy
from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.hatkv import ShardedKVCluster, load_hatkv_module
from repro.hatkv.client import cache_for
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException
from repro.ycsb.workload import Workload

SEEDS = (2, 20)
N_KEYS = 160
CLIENTS_PER_NODE = 4
RUN_FOR = 7.0 * ms                  # every client keeps issuing until then
TTL = 120e-6
#: give up on a dark shard quickly, so a flap sees many short failovers of
#: every kind instead of a few calls sitting out the default backoff
RETRY = RetryPolicy(max_attempts=2, base_backoff=20 * us, max_backoff=40 * us)
#: (shard, start, duration): shard 0 goes dark on the static ring; shard 1
#: inside the grow's forwarding window -- after its last range flipped
#: (3.425 / 3.459 ms at seeds 2 / 20), so the copy streams are done and only
#: client traffic meets the flap, and early enough that every call it
#: delays has settled before the shrink starts
FLAPS = ((0, 300 * us, 1900 * us), (1, 3700 * us, 800 * us))
RESIZE_AT = 3 * ms                  # grow 2 -> 3, then shrink 3 -> 2
#: long enough that a call which dies on the second flap (two transport
#: retry budgets, ~0.8 ms) is still inside the migration when it fails over
FORWARD_WINDOW = 1.5 * ms

GOLDEN = {
    2: {
        "sha256": "f1647e993672d4fcf5d40d21ebf383503dae23ffd358de514ec683b36442eac5",
        "ops": 1063, "end": "0.007050144971333544", "events": 45966,
        "counters": {
            "hatkv.cache.hits": 338,
            "hatkv.cache.invalidations": 21,
            "hatkv.cache.lease_expiries": 117,
            "hatkv.cache.misses": 2523,
            "hatkv.delete": 157,
            "hatkv.get": 273,
            "hatkv.lease.grants": 185,
            "hatkv.lease.suppressed": 87,
            "hatkv.lease.write_stalls": 20,
            "hatkv.migration.events": 248,
            "hatkv.multi_get": 625,
            "hatkv.multi_put": 675,
            "hatkv.put": 521,
            "hatkv.router.forward_reads": 3,
            "hatkv.router.read_failovers": 14,
            "hatkv.router.shard0.ops": 1025,
            "hatkv.router.shard1.ops": 991,
            "hatkv.router.shard2.ops": 353,
            "hatkv.scan": 353,
            "hatkv.shard0.delete": 68,
            "hatkv.shard0.get": 120,
            "hatkv.shard0.multi_get": 264,
            "hatkv.shard0.multi_put": 301,
            "hatkv.shard0.put": 181,
            "hatkv.shard0.scan": 126,
            "hatkv.shard1.delete": 67,
            "hatkv.shard1.get": 109,
            "hatkv.shard1.multi_get": 272,
            "hatkv.shard1.multi_put": 294,
            "hatkv.shard1.put": 193,
            "hatkv.shard1.scan": 130,
            "hatkv.shard2.delete": 22,
            "hatkv.shard2.get": 44,
            "hatkv.shard2.multi_get": 89,
            "hatkv.shard2.multi_put": 80,
            "hatkv.shard2.put": 147,
            "hatkv.shard2.scan": 97,
        },
    },
    20: {
        "sha256": "4204327093bf9cab945629363e81b9f88ca3100c6e9f2be85bc5914807492fa4",
        "ops": 1133, "end": "0.007093615512153622", "events": 49380,
        "counters": {
            "hatkv.cache.hits": 426,
            "hatkv.cache.invalidations": 13,
            "hatkv.cache.lease_expiries": 130,
            "hatkv.cache.misses": 2837,
            "hatkv.delete": 166,
            "hatkv.get": 282,
            "hatkv.lease.grants": 206,
            "hatkv.lease.suppressed": 74,
            "hatkv.lease.write_stalls": 17,
            "hatkv.migration.events": 248,
            "hatkv.multi_get": 710,
            "hatkv.multi_put": 768,
            "hatkv.put": 546,
            "hatkv.router.forward_reads": 31,
            "hatkv.router.read_failovers": 16,
            "hatkv.router.shard0.ops": 1077,
            "hatkv.router.shard1.ops": 1076,
            "hatkv.router.shard2.ops": 395,
            "hatkv.scan": 325,
            "hatkv.shard0.delete": 76,
            "hatkv.shard0.get": 100,
            "hatkv.shard0.multi_get": 297,
            "hatkv.shard0.multi_put": 336,
            "hatkv.shard0.put": 191,
            "hatkv.shard0.scan": 120,
            "hatkv.shard1.delete": 72,
            "hatkv.shard1.get": 121,
            "hatkv.shard1.multi_get": 306,
            "hatkv.shard1.multi_put": 328,
            "hatkv.shard1.put": 211,
            "hatkv.shard1.scan": 121,
            "hatkv.shard2.delete": 18,
            "hatkv.shard2.get": 61,
            "hatkv.shard2.multi_get": 107,
            "hatkv.shard2.multi_put": 104,
            "hatkv.shard2.put": 144,
            "hatkv.shard2.scan": 84,
        },
    },
}


def _canon(result):
    """A hashable, repr-stable form of whatever a router method returned."""
    if result is None or isinstance(result, (bytes, str)):
        return result
    if isinstance(result, list):
        return [_canon(r) for r in result]
    return (result.found, result.value, result.version, repr(result.lease))


def run_program(seed):
    """Returns (ops, sim, counters): ops is a list of
    ``(client, op, repr(latency), result)`` in completion order."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=8)
        sim = tb.sim
        gen = load_hatkv_module("function", concurrency=8,
                                cacheable={"ttl": TTL})
        cluster = ShardedKVCluster(tb, 2, gen_module=gen, replicas=2,
                                   vnodes=32, concurrency=8,
                                   reserve_nodes=[tb.nodes[2]],
                                   forward_window=FORWARD_WINDOW).start()
        keys = [Workload.key_of(i) for i in range(N_KEYS)]
        cluster.load((k, b"seed-" + k) for k in keys)
        FaultInjector(tb, FaultPlan(seed=seed, events=tuple(
            LinkFlap(cluster.servers[shard].node.name, start=start,
                     duration=duration)
            for shard, start, duration in FLAPS))).arm()
        client_nodes = tb.nodes[4:6]
        caches = [cache_for(node, gen) for node in client_nodes]
        ops = []

        def pick(rng):
            # reads are skewed: a handful of keys take most of them, so
            # they are leased, served locally and missed again on expiry
            return keys[min(int(rng.expovariate(1 / 6.0)), N_KEYS - 1)]

        def pick_w(rng):
            # writes are uniform, so the hot read set keeps its leases
            return keys[rng.randrange(N_KEYS)]

        def one_op(router, rng, n):
            roll = rng.random()
            if roll < 0.26:
                return "Get", router.Get(pick(rng))
            if roll < 0.40:
                return "MultiGet", router.MultiGet(
                    [pick(rng) for _ in range(12)])
            if roll < 0.52:
                return "MultiGet", router.MultiGet(
                    [pick(rng) for _ in range(6)])
            if roll < 0.66:
                return "Put", router.Put(pick_w(rng), b"p%d-" % n * 6)
            if roll < 0.74:
                ks = sorted({pick_w(rng) for _ in range(5)})
                return "MultiPut", router.MultiPut(
                    ks, [b"mp%d-" % n * 5] * len(ks))
            if roll < 0.82:
                ks = sorted({pick_w(rng) for _ in range(5)})
                return "MultiPut", router.MultiPut(
                    ks, [b"MP%d-" % n * 5] * len(ks))
            if roll < 0.89:
                return "Delete", router.Delete(pick_w(rng))
            return "Scan", router.Scan(pick(rng), 8)

        def client(i):
            rng = random.Random(seed * 7919 + i)
            node = i % len(client_nodes)
            router = yield from cluster.connect(
                client_nodes[node], cache=caches[node], retry_policy=RETRY,
                rng=random.Random(seed * 104729 + i))
            n = 0
            while sim.now < RUN_FOR:
                n += 1
                op, call = one_op(router, rng, n)
                t0 = sim.now
                try:
                    result = _canon((yield from call))
                except TTransportException as exc:
                    result = type(exc).__name__
                ops.append((i, op, repr(sim.now - t0), result))
                if rng.random() < 0.5:       # think time: lets leases lapse
                    yield sim.timeout(rng.uniform(0, 90 * us))
            router.close()

        def resizer():
            yield sim.timeout(RESIZE_AT)
            yield from cluster.resize(3)
            yield from cluster.resize(2)

        procs = [sim.process(client(i), name=f"golden-{i}")
                 for i in range(CLIENTS_PER_NODE * len(client_nodes))]
        procs.append(sim.process(resizer(), name="golden-resize"))
        sim.run()
        for p in procs:
            p.value                           # re-raise a crashed process
        assert cluster.n_shards == 2 and cluster.migration is None
        counters = {name: c.value for name, c in sorted(reg.counters.items())
                    if name.startswith("hatkv.")}
        return ops, sim, counters


def fingerprint(seed) -> dict:
    ops, sim, counters = run_program(seed)
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(op).encode())
    return {"sha256": h.hexdigest(), "ops": len(ops), "end": repr(sim.now),
            "events": sim.events_executed, "counters": counters,
            "errors": sum(1 for op in ops if isinstance(op[3], str))}


@pytest.fixture(scope="module")
def fingerprints():
    return {seed: fingerprint(seed) for seed in SEEDS}


def test_golden_program_leaves_the_happy_path(fingerprints):
    # A digest that matches runs which never failed over, parked on a
    # lease or forwarded would pin nothing: between them the seeds must
    # have driven every counted path.
    for name in ("hatkv.cache.hits", "hatkv.cache.invalidations", "hatkv.router.read_failovers",
                 "hatkv.router.forward_reads", "hatkv.lease.write_stalls",
                 "hatkv.router.shard2.ops", "hatkv.migration.events"):
        assert sum(fp["counters"].get(name, 0)
                   for fp in fingerprints.values()) > 0, name
    errors = [fp["errors"] for fp in fingerprints.values()]
    assert all(errors), "no op failed typed under the flaps"


@pytest.mark.parametrize("seed", SEEDS)
def test_router_golden_digest(fingerprints, seed):
    got, want = fingerprints[seed], GOLDEN[seed]
    assert got["counters"] == want["counters"]
    assert (got["ops"], got["end"], got["events"]) == \
        (want["ops"], want["end"], want["events"])
    assert got["sha256"] == want["sha256"]


if __name__ == "__main__":
    print(json.dumps({seed: fingerprint(seed) for seed in SEEDS}))
