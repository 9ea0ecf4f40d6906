"""Golden digest of the HatKV router: the refactoring oracle perfbench lacks.

perfbench drives :class:`~repro.hatkv.sharding.ShardRouter` with
``cache=False``, no faults and no resize, so the cached, hot-read-steered,
failover / takeover, forwarding-window and ``Scan`` / ``Delete`` /
``multi_*`` paths have no pinned answer there.  This file pins them: one
seeded program, run under two seeds, on a 2-shard ``replicas=2`` cluster
with a ``cacheable(ttl, hot_promote)`` module -- eight clients on two nodes,
each node's clients sharing one :class:`~repro.hatkv.cache.HotKeyCache`, all
eight router methods, a ``LinkFlap`` on shard 0 under static-ring traffic
(read failover, swept-call takeover, failed writes), then a 2 -> 3 grow with
a second flap inside its forwarding window and a 3 -> 2 shrink while the
clients keep going.  Neither seed reaches every path alone (one has the
failovers under migration and the hot reads, the other the writes that die
on their primary and a Scan racing the grow's attach); together they do.

The digest is a sha256 over ``(client, op, repr(latency), result)`` per
operation in completion order, so an edit that moves any reply by one ulp,
swaps two same-time completions, changes which wire driver a leg rides or
which shard answers fails here.  The constants were captured at the commit
*before* the router was rewritten (ISSUE 19) and checked there in two fresh
interpreters under ``PYTHONHASHSEED`` 1 and 2.  ``counters`` is every
``hatkv.*`` counter of the run.  ``events`` was refreshed (everything else kept) when a CPU job
with a core of its own became one heap entry, and again when a work
request's wire phases became callbacks on the heap.  Every constant was
refreshed once when the throughput-hinted backend got real group commit
and a resize began counting the writes already in flight when it starts;
that also moved the grow's last flip to 3.47 / 3.55 ms, so the second flap
moved from 3.5 to 3.7 ms to stay after it.  If you mean to change the model,
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
#: (3.47 / 3.55 ms at seeds 2 / 20), so the copy streams are done and only
#: client traffic meets the flap, and early enough that every call it
#: delays has settled before the shrink starts
FLAPS = ((0, 300 * us, 1900 * us), (1, 3700 * us, 800 * us))
RESIZE_AT = 3 * ms                  # grow 2 -> 3, then shrink 3 -> 2
#: long enough that a call which dies on the second flap (two transport
#: retry budgets, ~0.8 ms) is still inside the migration when it fails over
FORWARD_WINDOW = 1.5 * ms

GOLDEN = {
    2: {
        "sha256": "b6b2576fa80f6164b6565521aa6db1bfd6c122254d54c5276c17091edafd048a",
        "ops": 997, "end": "0.007111637040629888", "events": 115734,
        "counters": {
            "hatkv.cache.hits": 744,
            "hatkv.cache.hot_reads": 2,
            "hatkv.cache.invalidations": 93,
            "hatkv.cache.lease_expiries": 359,
            "hatkv.cache.misses": 1907,
            "hatkv.delete": 149,
            "hatkv.get": 1391,
            "hatkv.lease.grants": 793,
            "hatkv.lease.suppressed": 578,
            "hatkv.lease.write_stalls": 54,
            "hatkv.migration.events": 248,
            "hatkv.multi_get": 246,
            "hatkv.multi_put": 300,
            "hatkv.put": 1252,
            "hatkv.router.forward_reads": 3,
            "hatkv.router.read_failovers": 3,
            "hatkv.router.reroutes": 32,
            "hatkv.router.shard0.ops": 1506,
            "hatkv.router.shard1.ops": 1433,
            "hatkv.router.shard2.ops": 477,
            "hatkv.scan": 324,
            "hatkv.shard0.delete": 64,
            "hatkv.shard0.get": 585,
            "hatkv.shard0.multi_get": 101,
            "hatkv.shard0.multi_put": 135,
            "hatkv.shard0.put": 518,
            "hatkv.shard0.scan": 116,
            "hatkv.shard1.delete": 64,
            "hatkv.shard1.get": 606,
            "hatkv.shard1.multi_get": 114,
            "hatkv.shard1.multi_put": 132,
            "hatkv.shard1.put": 504,
            "hatkv.shard1.scan": 119,
            "hatkv.shard2.delete": 21,
            "hatkv.shard2.get": 200,
            "hatkv.shard2.multi_get": 31,
            "hatkv.shard2.multi_put": 33,
            "hatkv.shard2.put": 230,
            "hatkv.shard2.scan": 89,
        },
    },
    20: {
        "sha256": "5fb750959300a78578d9eb22df4c123cf314a4031ee506ae2d49f25672ceffa2",
        "ops": 1012, "end": "0.007271469267329792", "events": 119298,
        "counters": {
            "hatkv.cache.hits": 930,
            "hatkv.cache.hot_reads": 0,
            "hatkv.cache.invalidations": 91,
            "hatkv.cache.lease_expiries": 383,
            "hatkv.cache.misses": 1994,
            "hatkv.delete": 154,
            "hatkv.get": 1481,
            "hatkv.lease.grants": 929,
            "hatkv.lease.suppressed": 508,
            "hatkv.lease.write_stalls": 54,
            "hatkv.migration.events": 248,
            "hatkv.multi_get": 252,
            "hatkv.multi_put": 348,
            "hatkv.put": 1290,
            "hatkv.router.forward_reads": 22,
            "hatkv.router.read_failovers": 8,
            "hatkv.router.reroutes": 35,
            "hatkv.router.shard0.ops": 1525,
            "hatkv.router.shard1.ops": 1474,
            "hatkv.router.shard2.ops": 555,
            "hatkv.scan": 287,
            "hatkv.shard0.delete": 67,
            "hatkv.shard0.get": 589,
            "hatkv.shard0.multi_get": 104,
            "hatkv.shard0.multi_put": 149,
            "hatkv.shard0.put": 534,
            "hatkv.shard0.scan": 104,
            "hatkv.shard1.delete": 68,
            "hatkv.shard1.get": 638,
            "hatkv.shard1.multi_get": 105,
            "hatkv.shard1.multi_put": 143,
            "hatkv.shard1.put": 522,
            "hatkv.shard1.scan": 108,
            "hatkv.shard2.delete": 19,
            "hatkv.shard2.get": 254,
            "hatkv.shard2.multi_get": 43,
            "hatkv.shard2.multi_put": 56,
            "hatkv.shard2.put": 234,
            "hatkv.shard2.scan": 75,
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
                                cacheable={"ttl": TTL, "hot_promote": 3})
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
            # reads are skewed: a handful of keys take most of them, so they
            # cross hot_promote and their post-expiry misses can steer
            return keys[min(int(rng.expovariate(1 / 6.0)), N_KEYS - 1)]

        def pick_w(rng):
            # writes are uniform, so the hot read set keeps its leases
            return keys[rng.randrange(N_KEYS)]

        def one_op(router, rng, n):
            roll = rng.random()
            if roll < 0.26:
                return "Get", router.Get(pick(rng))
            if roll < 0.40:
                return "multi_get", router.multi_get(
                    [pick(rng) for _ in range(12)])
            if roll < 0.52:
                return "MultiGet", router.MultiGet(
                    [pick(rng) for _ in range(6)])
            if roll < 0.66:
                return "Put", router.Put(pick_w(rng), b"p%d-" % n * 6)
            if roll < 0.74:
                ks = sorted({pick_w(rng) for _ in range(5)})
                return "multi_put", router.multi_put(
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
    # A digest that matches runs which never failed over, steered, parked
    # on a lease or forwarded would pin nothing: between them the seeds
    # must have driven every counted path.
    for name in ("hatkv.cache.hits", "hatkv.cache.hot_reads",
                 "hatkv.cache.invalidations", "hatkv.router.read_failovers",
                 "hatkv.router.reroutes", "hatkv.router.forward_reads",
                 "hatkv.lease.write_stalls", "hatkv.router.shard2.ops",
                 "hatkv.migration.events"):
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
