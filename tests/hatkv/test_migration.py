"""Elastic resharding: ring deltas, the migration protocol, and the
router/cache correctness sweep that rides along.

Covers the minimality property of ring resizes (only the remapped arcs
move), plan/ring ownership agreement at every range state, the cutover
fence and server-side handoff guard (a Put is never acknowledged by two
primaries), the dual-read forwarding window, live grow/shrink under
concurrent traffic with exact final state, the load-aware trigger, and
the three satellite regressions: scoped reroute invalidation, close
fencing against in-flight takeovers, and epoch-consistent scan dedup.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.hatkv import (ShardedKVCluster, load_hatkv_module,
                         RangeHandedOffError, ResizeTrigger)
from repro.hatkv.client import connect_hatkv
from repro.hatkv.migration import (HandoffGuard, MigrationPlan, RangeState,
                                   RING_SPACE, hash_key)
from repro.hatkv.sharding import HashRing
from repro.sim.core import Event
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException
from repro.ycsb.workload import Workload

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.ObsInstallOrderWarning")

CACHEABLE = {"ttl": 500e-6, "hot_promote": 3}


def keys_of(n):
    return [Workload.key_of(i) for i in range(n)]


def _moved_task_and_key(plan):
    """(task, key): a range whose primary moves plus a key it covers."""
    for key in keys_of(5000):
        task = plan.covering(hash_key(key))
        if task is not None and task.src[0] != task.dst[0]:
            return task, key
    raise AssertionError("no key landed in a primary-moving range")


# -- ring deltas: the minimality property -------------------------------------

@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), delta=st.integers(1, 3), seed=st.integers(0, 3))
def test_resize_remaps_exactly_the_moved_ranges(n, delta, seed):
    """A key changes owner across a resize iff its hash falls in one of
    ``moved_ranges`` -- both directions, so the plan's range set is
    exactly (no more, no less) the remapped key space."""
    old = HashRing(n, vnodes=16, seed=seed)
    new = old.resize(n + delta)
    moved = old.moved_ranges(new)
    for key in keys_of(150):
        h = hash_key(key)
        covered = any(r.contains(h) for r in moved)
        assert covered == (old.shard_of(key) != new.shard_of(key))
        for r in moved:
            if r.contains(h):
                assert old.shard_of(key) == r.src
                assert new.shard_of(key) == r.dst


def test_resize_moves_the_consistent_hashing_fraction():
    """Growing n -> m remaps ~ (m - n) / m of the hash space (the new
    shards' vnode share), nowhere near the ~ (m-1)/m modulo would move."""
    old = HashRing(2, vnodes=256)
    new = old.resize(4)
    frac = sum(r.measure for r in old.moved_ranges(new)) / RING_SPACE
    assert abs(frac - 0.5) < 0.1, frac
    shrunk = HashRing(4, vnodes=256)
    frac = sum(r.measure for r in
               shrunk.moved_ranges(shrunk.resize(3))) / RING_SPACE
    assert abs(frac - 0.25) < 0.1, frac


def test_plan_ownership_agrees_with_rings_at_every_state():
    """plan.preference walks src -> dst exactly at the DONE flip, and
    primary_at resolves against the epoch the caller snapshotted."""
    tb = Testbed(n_nodes=2)
    old = HashRing(2, vnodes=32)
    new = old.resize(3)
    plan = MigrationPlan(tb.sim, old, new, replicas=1)
    assert plan.tasks
    epoch = 0
    for task in plan.tasks:
        h = task.lo
        for state in (RangeState.PENDING, RangeState.MIGRATING,
                      RangeState.CUTOVER):
            task.state = state
            assert plan.preference(h) == task.src
            assert plan.primary_at(h, epoch) == task.src[0]
            assert old.owner_of_hash(h) == task.src[0]
        epoch += 1
        task.state = RangeState.DONE
        task.done_epoch = epoch
        assert plan.preference(h) == task.dst
        assert new.owner_of_hash(h) == task.dst[0]
        # the frozen view from before this flip still sees the old owner
        assert plan.primary_at(h, epoch - 1) == task.src[0]
        assert plan.primary_at(h, epoch) == task.dst[0]
    assert plan.complete
    # hashes no task covers agree under both rings at every epoch
    for key in keys_of(200):
        h = hash_key(key)
        if plan.covering(h) is None:
            assert old.owner_of_hash(h) == new.owner_of_hash(h) \
                == plan.primary_at(h, 0)


# -- the write fence ----------------------------------------------------------

def test_handoff_guard_refuses_only_post_cutover_writes():
    tb = Testbed(n_nodes=2)
    old = HashRing(2, vnodes=32)
    plan = MigrationPlan(tb.sim, old, old.resize(3), replicas=1)
    task, key = _moved_task_and_key(plan)
    src_guard = HandoffGuard(plan, task.src[0])
    dst_guard = HandoffGuard(plan, task.dst[0])
    for state in (RangeState.MIGRATING, RangeState.CUTOVER):
        task.state = state
        src_guard.check(key)            # pre-flip: old owner still writes
    task.state = RangeState.DONE
    with pytest.raises(RangeHandedOffError):
        src_guard.check(key)
    dst_guard.check(key)                # the new owner accepts


def test_server_handler_enforces_the_guard():
    """The guard is wired into the server's write path: a write that a
    buggy router routes to the old primary after the flip dies loudly
    instead of double-applying."""
    tb = Testbed(n_nodes=4)
    cluster = ShardedKVCluster(tb, 3).start()
    old = HashRing(2, vnodes=32)
    plan = MigrationPlan(tb.sim, old, cluster.ring, replicas=1)
    for srv in cluster.servers:
        srv.install_handoff(HandoffGuard(plan, srv.shard))
    task, key = _moved_task_and_key(plan)
    task.state = RangeState.DONE
    gen = cluster.servers[task.src[0]].handler.Put(key, b"late")
    with pytest.raises(RangeHandedOffError):
        next(gen)


def test_put_parks_on_the_cutover_fence_and_lands_on_the_new_owner():
    tb = Testbed(n_nodes=5)
    cluster = ShardedKVCluster(tb, 3).start()
    old = HashRing(2, vnodes=32)
    plan = MigrationPlan(tb.sim, old, cluster.ring, replicas=1)
    cluster.migration = plan
    for srv in cluster.servers:
        srv.install_handoff(HandoffGuard(plan, srv.shard))
    task, key = _moved_task_and_key(plan)
    task.state = RangeState.CUTOVER
    task.fence = Event(tb.sim)
    out = {}

    def writer():
        router = yield from cluster.connect(tb.node(3), cache=False)
        yield from router.Put(key, b"post-flip")
        out["acked_at"] = tb.sim.now
        router.close()

    def driver():
        yield tb.sim.timeout(50 * us)
        cluster.routing_epoch += 1
        task.done_epoch = cluster.routing_epoch
        task.done_at = tb.sim.now
        task.state = RangeState.DONE
        out["flipped_at"] = tb.sim.now
        task.fence.succeed()

    tb.sim.process(driver())
    tb.sim.run(tb.sim.process(writer()))
    # the write waited out the fence, then landed on the NEW primary only
    assert out["acked_at"] > out["flipped_at"]
    with cluster.servers[task.dst[0]].backend.env.begin() as txn:
        assert txn.get(key) == b"post-flip"
    with cluster.servers[task.src[0]].backend.env.begin() as txn:
        assert txn.get(key) is None
    cluster.migration = None


def test_resize_adopts_the_writes_already_in_flight():
    """A write resolved by the static ring and still in flight when a
    resize starts lands on its range's old owner.  The plan counts it
    against that range the moment it takes over the routing (so the
    cutover drains it) and dirty-marks it when it settles (so the copy
    re-streams it): the new owner ends up with the written value."""
    tb = Testbed(n_nodes=5)
    cluster = ShardedKVCluster(tb, 2, vnodes=32,
                               reserve_nodes=[tb.nodes[2]]).start()
    probe = MigrationPlan(tb.sim, cluster.ring, cluster.ring.resize(3))
    _task, key = _moved_task_and_key(probe)
    cluster.load([(key, b"old")])
    out = {}

    def client():
        router = yield from cluster.connect(tb.node(4), cache=False)
        put = tb.sim.process(router.Put(key, b"new"))
        resize = cluster.start_resize(3)

        def check():
            # the resize has taken over the routing; the Put has not acked
            task = cluster.migration.covering(hash_key(key))
            out["inflight"] = (task.inflight, put.triggered)
            yield put
            out["dirty"] = key in task.dirty
        yield tb.sim.process(check())
        yield resize
        got = yield from router.Get(key)
        router.close()
        return got

    got = tb.sim.run(tb.sim.process(client()))
    assert out == {"inflight": (1, False), "dirty": True}
    assert got.found and got.value == b"new"
    assert cluster.migration is None and cluster._writes == {}


# -- live resize end to end ---------------------------------------------------

def _run_live_resize(tb, cluster, keys, target):
    out = {"ops": 0, "errors": [], "missing": 0}

    def client():
        router = yield from cluster.connect(tb.node(4), cache=False)
        done = cluster.start_resize(target)
        i = 0
        while not done.triggered:
            key = keys[i % len(keys)]
            val = b"w%d" % i * 8
            try:
                yield from router.Put(key, val)
                got = yield from router.Get(key)
                assert got.found and got.value == val, (key, i)
                out["ops"] += 1
            except Exception as exc:      # pragma: no cover - diagnostics
                out["errors"].append(repr(exc))
                break
            i += 1
        for key in keys:
            got = yield from router.Get(key)
            if not got.found:
                out["missing"] += 1
        router.close()

    tb.sim.run(tb.sim.process(client()))
    return out


def test_grow_under_live_traffic_loses_and_duplicates_nothing():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, vnodes=32,
                               reserve_nodes=tb.nodes[2:4]).start()
    keys = keys_of(150)
    cluster.load((k, b"seed" * 25) for k in keys)
    events = []
    cluster.on_migration.append(lambda kind, **a: events.append(kind))
    out = _run_live_resize(tb, cluster, keys, 4)
    assert out["errors"] == [] and out["missing"] == 0
    assert out["ops"] > 0, "no traffic overlapped the migration"
    assert cluster.n_shards == 4 and cluster.migration is None
    # post-cleanup: every key on exactly one shard, and on its ring owner
    totals = [s.backend.env.stat().entries for s in cluster.servers]
    assert sum(totals) == len(keys), totals
    assert totals == cluster.ring.distribution(keys)
    ranges = events.count("range_migrating")
    assert ranges and events.count("range_done") == ranges
    assert events[-1] == "resize_done" and "cleanup_done" in events


def test_shrink_retires_shards_and_keeps_replication():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 4, vnodes=32, replicas=2).start()
    keys = keys_of(120)
    cluster.load((k, b"seed" * 25) for k in keys)
    out = _run_live_resize(tb, cluster, keys, 2)
    assert out["errors"] == [] and out["missing"] == 0
    assert cluster.n_shards == 2 and len(cluster.servers) == 2
    assert len(cluster._spare_nodes) == 2      # retired nodes returned
    # replicas=2 over 2 shards: both survivors hold the full set
    for srv in cluster.servers:
        assert srv.backend.env.stat().entries == len(keys)
    cluster.stop()


def test_grow_preserves_client_visible_version_monotonicity():
    """A key's version never goes backwards across its handoff: the new
    owner adopts the old owner's version floor before the copy lands."""
    gen = load_hatkv_module("function", cacheable=CACHEABLE)
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, vnodes=32, gen_module=gen,
                               reserve_nodes=tb.nodes[2:4]).start()
    keys = keys_of(60)
    cluster.load((k, b"seed" * 25) for k in keys)
    versions = {}
    out = {"regressions": []}

    def client():
        router = yield from cluster.connect(tb.node(4), cache=False)
        for key in keys:                       # bump every version a few times
            yield from router.Put(key, b"v1" * 10)
            yield from router.Put(key, b"v2" * 10)
        done = cluster.start_resize(4)
        while not done.triggered:
            for key in keys[:20]:
                got = yield from router.Get(key)
                if versions.get(key, 0) > got.version:
                    out["regressions"].append((key, versions[key],
                                               got.version))
                versions[key] = got.version
            yield tb.sim.timeout(20 * us)
        router.close()

    tb.sim.run(tb.sim.process(client()))
    assert out["regressions"] == []


def test_forwarding_window_backstops_a_post_cutover_miss():
    """Dual-read: inside the forwarding window a miss on the new owner
    retries the old holders, so a read can never lose a key the cleanup
    has not dropped yet (here the dst copy is hand-deleted to force the
    miss)."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=8)
        cluster = ShardedKVCluster(tb, 2, vnodes=32,
                                   reserve_nodes=tb.nodes[2:4]).start()
        keys = keys_of(120)
        cluster.load((k, b"seed" * 25) for k in keys)
        flag = {}
        cluster.on_migration.append(
            lambda kind, **a: flag.update(cutover=True)
            if kind == "resize_cutover_complete" else None)
        out = {}

        def client():
            router = yield from cluster.connect(tb.node(4), cache=False)
            cluster.start_resize(4)
            while "cutover" not in flag:
                yield tb.sim.timeout(5 * us)
            # A key whose range's per-range window is still open and whose
            # primary moved (the window runs from each range's own flip, so
            # early-flipped ranges may already be out of it): vandalize its
            # new copy, simulating a reader racing an incomplete handoff.
            plan = cluster.migration
            key = next(k for k in keys
                       if cluster.read_fallback(k)
                       and cluster.primary(k) not in cluster.read_fallback(k))
            task = plan.covering(hash_key(key))
            with cluster.servers[task.dst[0]].backend.env.begin(
                    write=True) as txn:
                txn.delete(key)
            got = yield from router.Get(key)
            out["found"] = got.found
            out["value"] = got.value
            router.close()

        tb.sim.run(tb.sim.process(client()))
        assert out["found"] and out["value"] == b"seed" * 25
        assert reg.counter("hatkv.router.forward_reads").value >= 1


def test_migration_progress_probe_tracks_range_flips():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, vnodes=16,
                               reserve_nodes=[tb.nodes[2]]).start()
    cluster.load((k, b"x" * 40) for k in keys_of(80))
    snaps = []
    cluster.on_migration.append(
        lambda kind, **a: snaps.append(dict(cluster._migration_progress()))
        if kind == "range_done" else None)
    tb.sim.run(tb.sim.process(cluster.resize(3)))
    assert snaps, "no per-range progress was observable"
    done = [s["ranges_done"] for s in snaps]
    assert done == sorted(done) and done[-1] == snaps[-1]["ranges_total"]
    final = cluster._migration_progress()
    assert final["pct_done"] == 100.0 and final["keys_moved"] > 0


def test_resize_trigger_fires_once_from_key_balance():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2).start()
    fired = []
    trig = ResizeTrigger(cluster, 4, keys_per_shard=100.0,
                         phase="measurement", fire=fired.append)
    cool = {"hatkv.keys.shard0": 10.0, "hatkv.keys.shard1": 10.0}
    hot = {"hatkv.keys.shard0": 150.0, "hatkv.keys.shard1": 90.0}
    trig._on_sample(1.0, hot, {"phase": "warmup"})      # wrong phase
    trig._on_sample(2.0, cool, {"phase": "measurement"})  # under threshold
    assert fired == []
    trig._on_sample(3.0, hot, {"phase": "measurement"})
    trig._on_sample(4.0, hot, {"phase": "measurement"})  # latched: once only
    assert fired == [4] and trig.fired_at == 3.0


def test_engine_drain_close_waits_for_pipelined_tails():
    tb = Testbed(n_nodes=2)
    cluster = ShardedKVCluster(tb, 1).start()
    cluster.load((k, b"v" * 40) for k in keys_of(10))
    out = {}

    def client():
        stub = yield from connect_hatkv(tb.node(1), tb.node(0), cluster.gen,
                                        pipeline=True)
        engine = stub._hatrpc.engine
        caller = stub._hatrpc.async_caller()
        handles = []
        for k in keys_of(10):
            handles.append((yield from caller.call_async("Get", k)))
        yield from engine.drain_close()
        out["settled"] = all(h.done for h in handles)
        out["closed"] = not engine.is_open()

    tb.sim.run(tb.sim.process(client()))
    assert out == {"settled": True, "closed": True}


# -- satellite 1: reroute invalidation is shard-scoped ------------------------

def test_reroute_invalidates_only_the_flapped_shards_keys():
    """A single shard's takeover must not nuke the node-shared hot-key
    cache: entries primaried on other shards keep serving (the pre-fix
    hook called ``cache.clear()``)."""
    gen = load_hatkv_module("function", cacheable=CACHEABLE)
    with obs.installed() as reg:
        tb = Testbed(n_nodes=8)
        cluster = ShardedKVCluster(tb, 2, replicas=2, gen_module=gen).start()
        keys = keys_of(40)
        cluster.load((k, b"warm" * 20) for k in keys)
        shard0 = [k for k in keys if cluster.primary(k) == 0]
        shard1 = [k for k in keys if cluster.primary(k) == 1]
        assert shard0 and shard1
        out = {}

        class _Handle:
            done = False

            def _fail(self, exc):
                self.done = True

        class _Entry:
            fn = "Get"
            seqid = 424242
            oneway = False
            message = b"\x00"
            handle = _Handle()

        def _swallow_takeover(entry, replicas):
            # The satellite under test is the hook's cache scoping, not
            # takeover delivery (covered by tests/faults) -- swallow the
            # re-post so the fabricated entry never hits a real server.
            out["takeover_spawned"] = (entry, list(replicas))
            return
            yield

        def client():
            router = yield from cluster.connect(tb.node(4))
            router._reroute_entry = _swallow_takeover
            for k in keys:                     # warm the cache (leased Gets)
                yield from router.Get(k)
            assert len(router.cache) > 0
            # deliver a swept entry to shard 0's engine, exactly as the
            # pipeline sweep would on a link flap
            accepted = router._engines[0].sweep_reroute(
                _Entry, TTransportException(TTransportException.NOT_OPEN,
                                            "flap"))
            out["accepted"] = accepted
            out["s0_cached"] = sum(1 for k in shard0
                                   if k in router.cache._entries)
            out["s1_cached"] = sum(1 for k in shard1
                                   if k in router.cache._entries)
            hits0 = reg.counter("hatkv.cache.hits").value
            got = yield from router.Get(shard1[0])    # still a cache hit
            out["hit_survived"] = \
                reg.counter("hatkv.cache.hits").value == hits0 + 1
            out["value_ok"] = got.value == b"warm" * 20
            yield tb.sim.timeout(1 * ms)       # let the fake takeover settle
            router.close()

        tb.sim.run(tb.sim.process(client()))
        assert out["accepted"], "the sweep hook refused the takeover"
        assert out["s0_cached"] == 0, "flapped shard's entries must drop"
        assert out["s1_cached"] == len(shard1), \
            "other shards' hot entries must survive the flap"
        assert out["hit_survived"] and out["value_ok"]


# -- satellite 2: close fences in-flight takeovers ----------------------------

def test_close_during_reroute_fails_the_takeover_typed():
    """close() racing an in-flight takeover: the takeover must observe
    the fence and fail its entry with a typed NOT_OPEN instead of
    resolving it against the dead router (or hanging forever)."""
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, replicas=2).start()
    cluster.load((k, b"v" * 20) for k in keys_of(20))
    out = {}

    class _Handle:
        done = False
        failure = None
        resolved = None

        def _fail(self, exc):
            self.done = True
            self.failure = exc

        def _resolve(self, resp):
            self.done = True
            self.resolved = resp

    class _Entry:
        fn = "Get"
        seqid = 77
        oneway = False
        message = b"\x00"
        handle = _Handle()

    def client():
        router = yield from cluster.connect(tb.node(4), cache=False)
        hook = router._engines[0].sweep_reroute
        accepted = hook(_Entry, TTransportException(
            TTransportException.NOT_OPEN, "x"))
        router.close()          # the takeover process has not run yet
        out["accepted"] = accepted
        out["hook_detached"] = router._engines[0].sweep_reroute is None
        out["hook_refuses_now"] = not hook(_Entry, RuntimeError("late"))
        yield tb.sim.timeout(1 * ms)

    tb.sim.run(tb.sim.process(client()))
    assert out["accepted"] and out["hook_detached"]
    assert out["hook_refuses_now"]
    assert _Entry.handle.resolved is None, \
        "a takeover must never resolve against a closed router"
    assert isinstance(_Entry.handle.failure, TTransportException)
    assert "router closed" in str(_Entry.handle.failure)


# -- satellite 3: scan dedup is epoch-consistent ------------------------------

def test_routing_view_is_frozen_across_range_flips():
    tb = Testbed(n_nodes=4)
    cluster = ShardedKVCluster(tb, 3).start()
    old = HashRing(2, vnodes=32)
    plan = MigrationPlan(tb.sim, old, cluster.ring, replicas=1)
    cluster.migration = plan
    task, key = _moved_task_and_key(plan)
    view = cluster.routing_view()
    assert view.primary(key) == task.src[0]
    # the range flips AFTER the snapshot ...
    cluster.routing_epoch += 1
    task.done_epoch = cluster.routing_epoch
    task.state = RangeState.DONE
    # ... live routing follows, the frozen view does not
    assert cluster.primary(key) == task.dst[0]
    assert view.primary(key) == task.src[0]
    assert cluster.routing_view().primary(key) == task.dst[0]
    cluster.migration = None


def test_scan_dedup_survives_a_mid_merge_ring_flip():
    """Pre-fix, Scan resolved each key's primary LIVE while merging leg
    results, so a ring flip between two legs' merges re-ranked a stale
    replica row above the fresh primary row.  The frozen RoutingView
    pins the whole merge to one epoch.

    Setup: the fresh value lives on the key's primary (shard 1), a stale
    value on its replica (shard 0).  Shard 1's leg is made slow (extra
    rows), and the ring flips while it is still scanning -- after the
    flip the live primary is shard 0, so the pre-fix merge kept the
    stale row."""
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, replicas=2).start()
    keys = keys_of(10)
    cluster.load((k, b"v" * 20) for k in keys)
    key = next(k for k in keys if cluster.ring.shard_of(k) == 1)
    with cluster.servers[1].backend.env.begin(write=True) as txn:
        txn.put(key, b"fresh")
    with cluster.servers[0].backend.env.begin(write=True) as txn:
        txn.put(key, b"stale")
    # slow down shard 1's leg so the flip lands between the two merges
    # (500 rows: the reply must still fit Scan's 18 KiB channel slot -- a
    # server refuses an oversize reply instead of spilling it over the
    # neighbouring slots of the window)
    with cluster.servers[1].backend.env.begin(write=True) as txn:
        for i in range(500):
            txn.put(b"zz-pad-%06d" % i, b"p" * 8)
    # a ring under which the key's owner flips to shard 0
    flipped = next(HashRing(2, vnodes=32, seed=s) for s in range(1, 50)
                   if HashRing(2, vnodes=32, seed=s).shard_of(key) == 0)
    out = {}

    def flipper():
        yield tb.sim.timeout(30 * us)
        cluster.ring = flipped

    def client():
        router = yield from cluster.connect(tb.node(4), cache=False)
        flat = yield from router.Scan(b"", 5000)
        out["pairs"] = dict(zip(flat[::2], flat[1::2]))
        router.close()

    tb.sim.process(flipper())
    tb.sim.run(tb.sim.process(client()))
    assert out["pairs"][key] == b"fresh", \
        "scan dedup must rank rows against one frozen routing view"


@pytest.mark.parametrize("window_us", range(19, 25))
def test_scan_racing_a_shrinks_detach_skips_the_retired_shard(window_us):
    """A Scan fixes its leg list when it starts, and posting a leg yields.
    A shrink that retires the tail shard between two of those posts used
    to send the next leg to a shard record that was gone (IndexError at
    21 us here); the retired shard's rows were handed off and dropped
    before it was detached, so the scan just skips it.  The forwarding
    window is swept so the detach lands on every phase of the scan loop."""
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 3, vnodes=8,
                               forward_window=window_us * us).start()
    keys = keys_of(40)
    cluster.load((k, b"v" * 20) for k in keys)
    scans = []

    def client(i):
        router = yield from cluster.connect(tb.node(4 + i % 2), cache=False)
        yield tb.sim.timeout(i * 0.7 * us)
        while cluster.n_shards == 3 or cluster.migration is not None:
            flat = yield from router.Scan(b"", 100)
            scans.append(len(flat) // 2)
        flat = yield from router.Scan(b"", 100)     # settled: exact again
        assert dict(zip(flat[::2], flat[1::2])) == {k: b"v" * 20 for k in keys}
        router.close()

    procs = [tb.sim.process(client(i)) for i in range(4)]
    procs.append(tb.sim.process(cluster.resize(2)))
    tb.sim.run()
    for p in procs:
        p.value                                  # re-raise a crashed client
    assert scans and cluster.n_shards == 2


def test_cluster_nodes_property_covers_reserved_spares():
    tb = Testbed(n_nodes=6)
    cluster = ShardedKVCluster(tb, 2, reserve_nodes=tb.nodes[2:4])
    assert cluster.nodes == tb.nodes[:4]
    assert tb.nodes[4] not in cluster.nodes
