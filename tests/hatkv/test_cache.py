"""Hot-key cache + lease protocol tests: the ``cacheable`` hint end to end.

Covers the HotKeyCache unit behaviour, lease semantics under clock
advance and writes, invalidation across link-flap read failover, and the
cache-bypass guarantee (an uncached deployment's call flow -- down to the
reply bytes -- is untouched by the feature).
"""

import pytest

from repro import obs
from repro.core.hints import CacheableHint, cacheable_hint, resolve_hints
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFlap
from repro.hatkv import (HatKVServer, ShardedKVCluster, hatkv_idl,
                         load_hatkv_module)
from repro.hatkv.cache import HotKeyCache
from repro.hatkv.client import cache_for
from repro.hatkv.server import SERVICE, LeaseTable
from repro.idl import load_idl
from repro.testbed import Testbed
from repro.thrift import TBinaryProtocol, TMemoryBuffer

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.ObsInstallOrderWarning")

TTL = 200e-6
CACHEABLE = {"ttl": TTL}


class FakeSim:
    def __init__(self):
        self.now = 0.0


def k(i):
    return f"key-{i}".encode().ljust(24, b"0")


# -- hint plumbing ------------------------------------------------------------

def test_cacheable_hint_resolves_from_gen_module():
    gen = load_hatkv_module("function", cacheable=CACHEABLE)
    hint_map = gen.SERVICE_HINTS[SERVICE]
    for side in ("server", "client"):
        cc = cacheable_hint(resolve_hints(
            hint_map["service"], hint_map["functions"]["Get"], side))
        assert cc == CacheableHint(ttl=pytest.approx(TTL))
    # only Get is marked: a Put miss path must never consult the cache
    assert cacheable_hint(resolve_hints(
        hint_map["service"], hint_map["functions"]["Put"], "client")) is None


def test_hatkv_idl_refuses_unknown_cacheable_keys():
    # Lease ttl is the hint's only parameter: a key the IDL builder does
    # not know is refused by name, never dropped without a word.
    with pytest.raises(ValueError, match="hot_promote"):
        hatkv_idl(cacheable={"ttl": 1e-4, "hot_promote": 4})
    assert "cacheable(ttl = 0.000100000);" in hatkv_idl(
        cacheable={"ttl": 1e-4})


def test_uncached_module_resolves_no_hint():
    gen = load_hatkv_module("function")
    hint_map = gen.SERVICE_HINTS[SERVICE]
    assert cacheable_hint(resolve_hints(
        hint_map["service"], hint_map["functions"]["Get"], "client")) is None


# -- HotKeyCache unit behaviour ----------------------------------------------

class R:
    """A GetResult-shaped reply."""

    def __init__(self, found=True, value=b"v", version=1, lease=TTL):
        self.found = found
        self.value = value
        self.version = version
        self.lease = lease


def test_cache_admit_lookup_and_lease_expiry():
    sim = FakeSim()
    c = HotKeyCache(sim, ttl=TTL)
    assert c.lookup(b"a") is None
    c.admit(b"a", R())
    hit = c.lookup(b"a")
    assert hit is not None and hit.value == b"v" and hit.version == 1
    sim.now += TTL + 1e-9                 # the lease ages out on the clock
    assert c.lookup(b"a") is None
    assert len(c) == 0


def test_cache_refuses_unleased_and_versionless_replies():
    c = HotKeyCache(FakeSim(), ttl=TTL)
    c.admit(b"a", R(lease=0.0))           # writer in flight: no grant
    assert len(c) == 0
    c.admit(b"a", R(version=None, lease=None))   # uncached deployment
    assert len(c) == 0


def test_cache_admit_counts_lease_from_request_issue_time():
    # The server's write barrier ends at grant-time + lease; the reply's
    # flight time must NOT extend the entry past that horizon.
    sim = FakeSim()
    c = HotKeyCache(sim, ttl=TTL)
    issued = sim.now
    sim.now += TTL / 4                    # response flight
    c.admit(b"a", R(), issued=issued)
    sim.now = issued + TTL - 1e-9         # inside the issue-relative lease
    assert c.lookup(b"a") is not None
    sim.now = issued + TTL + 1e-9         # past it -- even though a
    assert c.lookup(b"a") is None         # reply-relative lease would hold
    # A reply older than its own lease is useless, not cached at all.
    issued = sim.now
    sim.now += TTL * 2
    c.admit(b"b", R(), issued=issued)
    assert len(c) == 0


def test_cache_newer_version_invalidates_even_without_lease():
    sim = FakeSim()
    c = HotKeyCache(sim, ttl=TTL)
    c.admit(b"a", R(version=1))
    # A v2 reply with no grant (write racing) must still kill the v1 entry.
    c.admit(b"a", R(value=b"v2", version=2, lease=0.0))
    assert c.lookup(b"a") is None


def test_cache_capacity_evicts_lru():
    sim = FakeSim()
    c = HotKeyCache(sim, ttl=TTL, capacity=2)
    c.admit(b"a", R())
    c.admit(b"b", R())
    assert c.lookup(b"a") is not None     # refresh a: b is now LRU
    c.admit(b"c", R())
    assert c.lookup(b"b") is None
    assert c.lookup(b"a") is not None and c.lookup(b"c") is not None


def test_cache_invalidate_and_clear_count():
    with obs.installed() as reg:
        c = HotKeyCache(FakeSim(), ttl=TTL)
        c.admit(b"a", R())
        c.admit(b"b", R())
        c.invalidate(b"a")
        c.invalidate(b"a")                # second is a no-op
        c.clear()
        assert reg.counter("hatkv.cache.invalidations").value == 2
        assert len(c) == 0


# -- LeaseTable unit behaviour ------------------------------------------------

def test_lease_grant_refused_while_writer_in_flight_or_version_moved():
    sim = FakeSim()
    lt = LeaseTable(sim, ttl=TTL)
    assert lt.grant(b"a", 0) == TTL
    lt.begin_write(b"a")
    assert lt.grant(b"a", 0) == 0.0
    lt.bump(b"a")
    lt.end_write(b"a")
    assert lt.grant(b"a", 0) == 0.0       # read started before the bump
    assert lt.grant(b"a", 1) == 0.0       # write-rate suppression window
    sim.now += lt.suppress
    assert lt.grant(b"a", 1) == pytest.approx(TTL)


def test_lease_grants_share_one_epoch_not_a_sliding_horizon():
    sim = FakeSim()
    lt = LeaseTable(sim, ttl=TTL)
    assert lt.grant(b"a", 0) == TTL
    sim.now += TTL / 2
    # A grant mid-epoch gets only the epoch's remainder: a writer's
    # barrier is bounded by the FIRST grant's expiry, not re-extended.
    assert lt.grant(b"a", 0) == pytest.approx(TTL / 2)
    sim.now += TTL / 2
    assert lt.grant(b"a", 0) == TTL       # fresh epoch after expiry


def test_write_rate_suppression_skipped_for_short_leases():
    from repro.hatkv.server import LEASE_SUPPRESS_MIN_TTL
    sim = FakeSim()
    short = LeaseTable(sim, ttl=LEASE_SUPPRESS_MIN_TTL / 2)
    short.bump(b"a")
    # Short lease: a just-written key is immediately grantable again.
    assert short.grant(b"a", 1) > 0.0
    longl = LeaseTable(sim, ttl=LEASE_SUPPRESS_MIN_TTL * 4)
    longl.bump(b"a")
    assert longl.grant(b"a", 1) == 0.0
    sim.now += longl.suppress
    assert longl.grant(b"a", 1) > 0.0


# -- single-server end to end -------------------------------------------------

def _start_cached(tb, cacheable=CACHEABLE):
    # One shard: the router is the cache-aware single-server client.
    gen = load_hatkv_module("function", concurrency=4, cacheable=cacheable)
    tb.kv = ShardedKVCluster(tb, 1, gen_module=gen, concurrency=4).start()
    return gen, tb.kv.servers[0]


def _kv_client(tb, gen):
    return tb.kv.connect(tb.node(1))


def test_cached_get_hits_locally_and_write_invalidates():
    tb = Testbed(n_nodes=3)
    gen, server = _start_cached(tb)
    out = {}

    def client():
        kv = yield from _kv_client(tb, gen)
        yield from kv.Put(k(1), b"v1")
        yield tb.sim.timeout(2 * TTL)        # exit the write-suppression window
        r1 = yield from kv.Get(k(1))         # miss: fills the cache
        reads0 = server.backend.reads
        r2 = yield from kv.Get(k(1))         # hit: no backend read
        out["r1"], out["r2"] = r1, r2
        out["hit_local"] = server.backend.reads == reads0
        yield from kv.Put(k(1), b"v2")       # invalidates
        out["r3"] = yield from kv.Get(k(1))

    tb.sim.run(tb.sim.process(client()))
    assert out["r1"].value == b"v1" and out["r1"].lease == pytest.approx(TTL)
    assert out["r2"].value == b"v1" and out["r2"].lease == 0.0
    assert out["hit_local"]
    assert out["r3"].value == b"v2"


def test_lease_expiry_vs_clock_advance():
    tb = Testbed(n_nodes=3)
    gen, server = _start_cached(tb)
    out = {}

    def client():
        kv = yield from _kv_client(tb, gen)
        yield from kv.Put(k(2), b"v")
        yield tb.sim.timeout(2 * TTL)        # exit the write-suppression window
        yield from kv.Get(k(2))
        reads0 = server.backend.reads
        yield tb.sim.timeout(TTL / 2)        # still inside the lease
        yield from kv.Get(k(2))
        out["within"] = server.backend.reads == reads0
        yield tb.sim.timeout(TTL)            # now past it
        yield from kv.Get(k(2))
        out["after"] = server.backend.reads == reads0 + 1
        out["expiries"] = kv.cache._m_expiries

    tb.sim.run(tb.sim.process(client()))
    assert out["within"], "unexpired lease must serve locally"
    assert out["after"], "expired lease must go back to the server"


def test_put_stalls_until_outstanding_lease_expires():
    # The write barrier: a Put to a leased key cannot apply (and ack)
    # until the lease horizon passes -- that is what makes serving leased
    # entries safe.
    tb = Testbed(n_nodes=3)
    gen, server = _start_cached(tb)
    out = {}

    def client():
        kv = yield from _kv_client(tb, gen)
        yield from kv.Put(k(3), b"v1")
        yield tb.sim.timeout(2 * TTL)        # exit the write-suppression window
        yield from kv.Get(k(3))              # takes a lease
        t0 = tb.sim.now
        yield from kv.Put(k(3), b"v2")       # must wait out the lease
        out["stall"] = tb.sim.now - t0
        out["r"] = yield from kv.Get(k(3))

    tb.sim.run(tb.sim.process(client()))
    assert out["stall"] >= TTL * 0.9, out["stall"]
    assert out["r"].value == b"v2"


def test_no_stale_reads_across_put_burst():
    # Storm-cell shape: a leased hot key takes a burst of writes; every
    # post-ack read must observe the latest acknowledged value, and the
    # cache must converge within one lease of the final ack.
    tb = Testbed(n_nodes=3)
    gen, server = _start_cached(tb)
    out = {"stale": 0}

    def client():
        kv = yield from _kv_client(tb, gen)
        yield from kv.Put(k(4), b"v0")
        yield tb.sim.timeout(2 * TTL)        # exit the write-suppression window
        yield from kv.Get(k(4))
        for i in range(1, 6):
            yield from kv.Put(k(4), f"v{i}".encode())
            r = yield from kv.Get(k(4))
            if r.value != f"v{i}".encode():
                out["stale"] += 1
        yield tb.sim.timeout(TTL)            # one lease after the last ack
        out["final"] = yield from kv.Get(k(4))

    tb.sim.run(tb.sim.process(client()))
    assert out["stale"] == 0
    assert out["final"].value == b"v5"


def test_MultiGet_serves_cached_keys_locally():
    with obs.installed() as reg:
        tb = Testbed(n_nodes=3)
        gen, server = _start_cached(tb)
        keys = [k(i) for i in range(10, 16)]
        out = {}

        def client():
            kv = yield from _kv_client(tb, gen)
            yield from kv.MultiPut(keys, [b"v-" + key for key in keys])
            yield tb.sim.timeout(2 * TTL)    # exit the write-suppression window
            yield from kv.Get(keys[0])       # warm one key
            reads0 = server.backend.reads
            misses0 = reg.counter("hatkv.cache.misses").value
            out["vals"] = yield from kv.MultiGet(keys)
            out["reads"] = server.backend.reads - reads0
            out["misses"] = reg.counter("hatkv.cache.misses").value - misses0

        tb.sim.run(tb.sim.process(client()))
        assert out["vals"] == [b"v-" + key for key in keys]
        assert out["misses"] == len(keys) - 1    # the warm key was a hit
        assert out["reads"] == out["misses"]     # ... and never hit LMDB


# -- cache bypass: the uncached deployment is untouched -----------------------

OLD_GETRESULT_IDL = """
struct GetResult {
    1: bool found,
    2: binary value,
}
"""


def test_uncached_reply_bytes_identical_to_two_field_struct():
    # The wire contract: fields 3 (version) and 4 (lease) are only ever
    # serialized when a lease table is wired.  An uncached server's reply
    # must stay byte-for-byte what the pre-cache struct produced.
    new = load_hatkv_module("function").GetResult(found=True, value=b"xy")
    old = load_idl(OLD_GETRESULT_IDL).GetResult(found=True, value=b"xy")
    bufs = []
    for struct in (new, old):
        buf = TMemoryBuffer()
        struct.write(TBinaryProtocol(buf))
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]


def test_uncached_flow_bypasses_cache_entirely():
    tb = Testbed(n_nodes=3)
    gen, server = _start_cached(tb, cacheable=None)
    assert server.leases is None
    assert cache_for(tb.node(1), gen) is None
    out = {}

    def client():
        kv = yield from _kv_client(tb, gen)
        assert kv.cache is None
        yield from kv.Put(k(6), b"v")
        out["r1"] = yield from kv.Get(k(6))
        out["r2"] = yield from kv.Get(k(6))

    tb.sim.run(tb.sim.process(client()))
    for r in (out["r1"], out["r2"]):
        assert r.value == b"v"
        assert r.version is None and r.lease is None
    assert server.backend.reads == 2        # both Gets hit the server


def test_cacheable_adds_no_channel_to_the_plan():
    # The hint's whole client half is the cache above the router: the
    # channel plan is the uncached one, channel for channel.
    gen_off = load_hatkv_module("function")
    gen_on = load_hatkv_module("function", cacheable=CACHEABLE)
    tb = Testbed(n_nodes=3)
    s_off = HatKVServer(tb.node(0), gen_off)
    s_on = HatKVServer(tb.node(1), gen_on)
    assert s_on.rpc.plan.channels == s_off.rpc.plan.channels


# -- failover invalidation ----------------------------------------------------

def test_link_flap_failover_invalidates_instead_of_serving_stale():
    with obs.installed() as reg:
        tb = Testbed(n_nodes=8)
        gen = load_hatkv_module("function", cacheable=CACHEABLE)
        cluster = ShardedKVCluster(tb, 2, gen_module=gen,
                                   replicas=2).start()
        key = k(7)
        p = cluster.primary(key)
        # The flap must outlast the engine's retry budget: a short blip is
        # ridden out with retries and the call still settles on the
        # primary (no failover, and caching that answer is fine).  It
        # also starts after the Put's write-suppression window (2 * TTL)
        # so the warm Get actually takes a lease.
        flap_at, flap_len = 800e-6, 20e-3
        FaultInjector(tb, FaultPlan(events=(
            LinkFlap(node=cluster.servers[p].node.name,
                     start=flap_at, duration=flap_len),))).arm()
        out = {}

        def client():
            r = yield from cluster.connect(tb.node(4))
            yield from r.Put(key, b"v1")
            yield tb.sim.timeout(2 * TTL)           # exit write suppression
            yield from r.Get(key)                   # warm the cache
            assert len(r.cache) == 1
            yield tb.sim.timeout(flap_at + 50e-6 - tb.sim.now)
            # Primary is dark: the read fails over to the replica.  The
            # answer must come back, but must NOT be admitted -- and the
            # stale warm entry must be gone.
            got = yield from r.Get(key)
            out["value"] = got.value
            out["cached_after"] = len(r.cache)
            yield tb.sim.timeout(flap_len)          # link back up
            out["recovered"] = yield from r.Get(key)
            r.close()

        tb.sim.run(tb.sim.process(client()))
        assert out["value"] == b"v1"
        assert out["cached_after"] == 0
        assert out["recovered"].value == b"v1"
        assert reg.counter("hatkv.router.read_failovers").value >= 1


def test_cache_metrics_streamed_names():
    with obs.installed() as reg:
        HotKeyCache(FakeSim(), ttl=TTL)
        for name in ("hits", "misses", "invalidations", "lease_expiries"):
            assert f"hatkv.cache.{name}" in reg.counters
