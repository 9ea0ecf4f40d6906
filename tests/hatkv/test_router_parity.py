"""One routing decision, several ways to ask: every situation must end the
same way whichever stub method carried the keys.

:class:`~repro.hatkv.sharding.ShardRouter` takes each read decision (cache
hit, what the primary's answer turns into, the failover walk) and each
write decision (fence gate, primary-first waves, settle and invalidate) at
one site shared by all its methods; only the wire driver and the batching
differ.  So the same writes through a ``Put`` loop or one ``MultiPut`` must
leave equal values, equal cache contents, equal ``hatkv.router.*`` /
``hatkv.cache.*`` counter deltas and equal replica contents -- on the
static ring, with the keys' primary dark, and inside a range's forwarding
window.  ``tests/faults/test_policy_parity.py`` is the same idea one layer
down (one recovery policy, two wire drivers).

Reads are a ``Get`` loop held to what each situation must decide: a read
whose primary leg dies is answered by the router's failover walk
(``read_failovers``), one replica answer per read, never cached; a miss
inside the forwarding window is answered by the range's previous holders
(``forward_reads``), never cached either.  One ``MultiGet`` of the same
keys must return the same values.
"""

import random

import pytest

from repro import obs
from repro.core.resilience import RetryPolicy
from repro.hatkv import ShardedKVCluster, load_hatkv_module
from repro.hatkv.migration import hash_key
from repro.sim.units import us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException
from repro.ycsb.workload import Workload

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.ObsInstallOrderWarning")

#: long enough that no lease lapses while a sequential loop sits out a dead
#: primary's transport retries -- expiry is timing, not a routing decision
TTL = 50e-3
N_KEYS = 24
KEYS = [Workload.key_of(i) for i in range(N_KEYS)]
SITUATIONS = ("static", "primary_down", "forwarding_window")
COUNTERS = ("hatkv.router.read_failovers", "hatkv.router.forward_reads",
            "hatkv.cache.hits",
            "hatkv.cache.misses", "hatkv.cache.invalidations",
            "hatkv.cache.lease_expiries")


def seed_value(key):
    return b"seed-" + key


@pytest.fixture(scope="module")
def gen():
    return load_hatkv_module("function", concurrency=8,
                             cacheable={"ttl": TTL})


class World:
    """One fresh cluster put into ``situation``, with a connected router."""

    def __init__(self, gen, situation):
        self.tb = tb = Testbed(n_nodes=8)
        self.cluster = cluster = ShardedKVCluster(
            tb, 2, gen_module=gen, replicas=2, vnodes=16, concurrency=8,
            reserve_nodes=[tb.nodes[2]], forward_window=10e-3).start()
        self.keys = KEYS
        cluster.load((k, seed_value(k)) for k in self.keys)
        self.situation = situation

    def keys_by_primary(self):
        """The keys grouped by the shard that owns them right now."""
        groups = {}
        for key in self.keys:
            groups.setdefault(self.cluster.primary(key), []).append(key)
        return [groups[shard] for shard in sorted(groups)]

    def enter(self):
        """Coroutine: a router, connected once the situation holds."""
        tb, cluster = self.tb, self.cluster
        if self.situation == "forwarding_window":
            # Grow 2 -> 3 and stop inside the (long) forwarding window:
            # every range has flipped, none has been cleaned up.
            flipped = []
            cluster.on_migration.append(
                lambda kind, **a: flipped.append(kind)
                if kind == "resize_cutover_complete" else None)
            cluster.start_resize(3)
            while not flipped:
                yield tb.sim.timeout(20 * us)
            # Lose the new owners' copies of the keys whose primary moved:
            # only the forward read to the previous holders can find them.
            for key in self.moved_keys():
                task = cluster.migration.covering(hash_key(key))
                for shard in task.copy_targets:
                    with cluster.servers[shard].backend.env.begin(
                            write=True) as txn:
                        txn.delete(key)
        router = yield from cluster.connect(
            tb.node(4), rng=random.Random(5),
            retry_policy=RetryPolicy(max_attempts=1))
        if self.situation == "primary_down":
            # Dark before the first call, so every leg to shard 0 dies the
            # same way whichever method sends it.
            cluster.servers[0].node.crash()
        return router

    def moved_keys(self):
        plan = self.cluster.migration
        return [k for k in self.keys
                if (t := plan.covering(hash_key(k))) is not None
                and t.src[0] != t.dst[0]]

    def replica_contents(self):
        out = []
        for server in self.cluster.servers:
            with server.backend.env.begin() as txn:
                out.append({k: txn.get(k) for k in self.keys})
        return out


def drive(gen, situation, body):
    """Run ``body(world, router)`` in a fresh world; returns what parity
    compares: the body's values, the cache, counter deltas, replicas."""
    with obs.installed() as reg:
        world = World(gen, situation)
        out = {}

        def client():
            router = yield from world.enter()

            before = {n: reg.counter(n).value for n in COUNTERS}
            out["values"] = yield from body(world, router)
            out["counters"] = {n: reg.counter(n).value - before[n]
                               for n in COUNTERS}
            out["cache"] = {k: (e.found, e.value, e.version)
                            for k, e in router.cache._entries.items()}
            router.close()

        proc = world.tb.sim.process(client())
        world.tb.sim.run(proc)
        proc.value
        out["replicas"] = world.replica_contents()
        # what each key's current holders store, primary first
        out["held"] = {k: [out["replicas"][shard][k]
                           for shard in world.cluster.preference(k)]
                       for k in world.keys}
        out["primary"] = {k: world.cluster.primary(k) for k in world.keys}
        return out


# -- reads --------------------------------------------------------------------

def get_loop(world, router):
    values = {}
    for _ in range(2):              # second sweep: hits where admitted
        for group in world.keys_by_primary():
            for key in group:
                got = yield from router.Get(key)
                values[key] = got.value if got.found else b""
    return values


def multi_get(world, router):
    """One server-side MultiGet of every key."""
    return dict(zip(world.keys, (yield from router.MultiGet(world.keys))))


@pytest.mark.parametrize("situation", SITUATIONS)
def test_get_loop_and_multi_get_decide_alike(gen, situation):
    one = drive(gen, situation, get_loop)
    assert one["values"] == {k: seed_value(k) for k in KEYS}
    batch = drive(gen, situation, multi_get)
    assert batch["values"] == one["values"]
    assert batch["cache"] == {}             # batch replies are never cached
    # ... and the situation really was the one named
    c = one["counters"]
    if situation == "static":
        assert c["hatkv.cache.hits"] == N_KEYS and len(one["cache"]) == N_KEYS
    elif situation == "primary_down":
        assert c["hatkv.router.read_failovers"] == \
            2 * (N_KEYS - len(one["cache"]))
        assert 0 < len(one["cache"]) < N_KEYS   # failover answers: not cached
    else:
        assert c["hatkv.router.forward_reads"] > 0
        assert 0 < len(one["cache"]) < N_KEYS   # forwarded answers: not cached
        # one forward per moved key: the loop's two sweeps, the batch's one
        assert 2 * batch["counters"]["hatkv.router.forward_reads"] == \
            c["hatkv.router.forward_reads"]


# -- writes -------------------------------------------------------------------

def new_value(key):
    return b"new-" + key


def warm(world, router):
    """Coroutine: cache what can be cached, so the writes must invalidate."""
    yield from get_loop(world, router)


def put_loop(world, router):
    """Coroutine: True when any write failed typed."""
    yield from warm(world, router)
    failed = False
    for key in world.keys:
        try:
            yield from router.Put(key, new_value(key))
        except TTransportException:
            failed = True
    return failed


def multi_put(world, router):
    """Coroutine: True when the MultiPut failed typed."""
    yield from warm(world, router)
    try:
        yield from router.MultiPut(
            world.keys, [new_value(k) for k in world.keys])
    except TTransportException:
        return True
    return False


@pytest.mark.parametrize("situation", SITUATIONS)
def test_put_loop_multi_put_and_MultiPut_decide_alike(gen, situation):
    runs = [drive(gen, situation, body)
            for body in (put_loop, multi_put)]
    loop, batch = runs
    assert batch["cache"] == loop["cache"] == {}        # every key written
    assert batch["counters"] == loop["counters"]
    assert batch["values"] == loop["values"]            # failed typed, or not
    assert batch["replicas"] == loop["replicas"]
    if situation == "primary_down":
        assert loop["values"], "writes to a dark primary must fail typed"
        # Primary-first: the dark shard took nothing, and the live one only
        # the keys it is primary for -- no replica is ahead of its primary.
        dark, live = loop["replicas"]
        assert dark == {k: seed_value(k) for k in KEYS}
        assert {k for k, v in live.items() if v == new_value(k)} == \
            {k for k, shard in loop["primary"].items() if shard == 1}
    else:
        assert not loop["values"]
        assert loop["held"] == {k: [new_value(k)] * 2 for k in KEYS}
