"""Shard failover under injected faults.

One shard's node loses its link mid-run: reads routed to it must fail
over to the replica shard through the router's failover walk (swept
in-flight pipelined reads included: their handle's transport error starts
the same walk), while writes surface typed transport errors -- the router
never blind-retries a write.  A read the primary sheds under admission
control is not a failure and is never failed over.
"""

import random

import pytest

from repro import obs
from repro.core.overload import AdmissionConfig
from repro.core.resilience import RetryPolicy
from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.hatkv import ShardedKVCluster
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TRejectedException, TTransportException
from repro.ycsb.workload import Workload

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.ObsInstallOrderWarning")

N_KEYS = 120
VALUE = b"payload-" * 12


def build_cluster(tb, **kw):
    kw.setdefault("replicas", 2)
    cluster = ShardedKVCluster(tb, 2, **kw).start()
    items = [(Workload.key_of(i), VALUE) for i in range(N_KEYS)]
    cluster.load(items)
    return cluster, [k for k, _ in items]


def keys_on_shard(cluster, keys, shard):
    return [k for k in keys if cluster.primary(k) == shard]


def test_reads_fail_over_to_replica_during_link_flap():
    tb = Testbed(n_nodes=6)
    cluster, keys = build_cluster(tb)
    flap_node = cluster.servers[0].node.name
    FaultInjector(tb, FaultPlan(seed=3, events=(
        LinkFlap(flap_node, start=150 * us, duration=8 * ms),
    ))).arm()
    shard0_keys = keys_on_shard(cluster, keys, 0)
    assert len(shard0_keys) >= 10
    out = {"values": [], "write_errors": 0}

    def client():
        router = yield from cluster.connect(tb.node(4),
                                            rng=random.Random(7))
        yield tb.sim.timeout(300 * us)         # well inside the flap window
        for key in shard0_keys[:8]:
            got = yield from router.Get(key)   # replica serves the read
            out["values"].append((got.found, got.value))
        for key in shard0_keys[:3]:            # writes: typed error, no retry
            try:
                yield from router.Put(key, b"clobber")
            except TTransportException:
                out["write_errors"] += 1
        router.close()

    tb.sim.run(tb.sim.process(client()))
    assert out["values"] == [(True, VALUE)] * 8
    assert out["write_errors"] == 3
    # the data was never clobbered mid-flap on the replica either
    for key in shard0_keys[:3]:
        env = cluster.servers[1].backend.env
        with env.begin() as txn:
            assert txn.get(key) == VALUE


def test_swept_inflight_reads_fail_over_to_replica():
    """Pipelined MultiGets are in flight when the primary's link drops:
    each swept sub-batch fails on its handle, and the router's failover
    walk must answer it from the replica.  One router per client process
    (a router, like a Thrift client, serves one process at a time)."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=6)
        cluster, keys = build_cluster(tb)
        flap_node = cluster.servers[0].node.name
        FaultInjector(tb, FaultPlan(seed=5, events=(
            LinkFlap(flap_node, start=30 * us, duration=10 * ms),
        ))).arm()
        shard0 = keys_on_shard(cluster, keys, 0)[:40]
        out = []

        def client(i):
            router = yield from cluster.connect(tb.node(2 + i % 4),
                                                rng=random.Random(11 + i))
            out.extend((yield from router.MultiGet(shard0[4 * i:4 * i + 4])))
            router.close()

        procs = [tb.sim.process(client(i)) for i in range(10)]
        tb.sim.run(tb.sim.all_of(procs))
        assert out == [VALUE] * 40
        assert reg.counter("hatkv.router.read_failovers").value == 10


def test_shed_reads_are_not_failed_over_to_replicas():
    """An admission rejection is the primary shedding load on purpose:
    the read surfaces a typed TRejectedException and no replica is asked,
    so an overload storm is not shifted sideways onto the replica."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=6)
        cluster, keys = build_cluster(
            tb, admission=AdmissionConfig(capacity=1))
        shard0 = keys_on_shard(cluster, keys, 0)[:20]
        out = {"rejected": 0, "values": []}

        def client(i):
            router = yield from cluster.connect(
                tb.node(2 + i % 4), rng=random.Random(i),
                retry_policy=RetryPolicy(max_attempts=1))
            yield tb.sim.timeout(2 * ms - tb.sim.now)     # released together
            for key in shard0:
                try:
                    got = yield from router.Get(key)
                except TRejectedException:
                    out["rejected"] += 1
                else:
                    out["values"].append(got.value)
            router.close()

        procs = [tb.sim.process(client(i)) for i in range(16)]
        tb.sim.run(tb.sim.all_of(procs))
        shed = reg.counter("admission.rejected").value
        assert shed > 0
        assert out["rejected"] == shed
        assert out["values"] == [VALUE] * (16 * 20 - shed)
        assert reg.counter("hatkv.router.read_failovers").value == 0
        assert reg.counter("hatkv.shard1.get").value == 0


def test_close_during_failover_walk_fails_typed():
    """close() racing a failover walk: the Get's primary is dark, and the
    router closes just before the replica leg.  The leg must fail typed
    (NOT_OPEN from the router), not reach the closed engine."""
    tb = Testbed(n_nodes=6)
    cluster, keys = build_cluster(tb)
    cluster.servers[0].node.crash()
    key = keys_on_shard(cluster, keys, 0)[0]
    out = {}

    def client():
        router = yield from cluster.connect(tb.node(4), cache=False,
                                            rng=random.Random(5))
        call = router._call

        def close_before_replica_leg(shard, method, *args):
            if shard != 0:
                router.close()
            return call(shard, method, *args)

        router._call = close_before_replica_leg
        try:
            yield from router.Get(key)
        except Exception as exc:
            out["error"] = exc

    tb.sim.run(tb.sim.process(client()))
    err = out["error"]
    assert isinstance(err, TTransportException), repr(err)
    assert err.type == TTransportException.NOT_OPEN
    assert "router closed" in str(err)


def test_flap_over_reads_and_writes_recover_after_window():
    tb = Testbed(n_nodes=6)
    cluster, keys = build_cluster(tb)
    flap_node = cluster.servers[0].node.name
    FaultInjector(tb, FaultPlan(seed=9, events=(
        LinkFlap(flap_node, start=100 * us, duration=2 * ms),
    ))).arm()
    key = keys_on_shard(cluster, keys, 0)[0]
    out = {}

    def client():
        router = yield from cluster.connect(tb.node(4),
                                            rng=random.Random(13))
        yield tb.sim.timeout(5 * ms)           # past the window
        yield from router.Put(key, b"after-flap")
        got = yield from router.Get(key)
        out["after"] = (got.found, got.value)
        router.close()

    tb.sim.run(tb.sim.process(client()))
    assert out["after"] == (True, b"after-flap")
    # the write replicated to both owners
    for shard in cluster.preference(key):
        with cluster.servers[shard].backend.env.begin() as txn:
            assert txn.get(key) == b"after-flap"


def test_no_replicas_means_reads_fail_typed():
    """replicas=1: no failover target -- reads surface the transport
    error instead of silently returning wrong data."""
    tb = Testbed(n_nodes=6)
    cluster, keys = build_cluster(tb, replicas=1)
    flap_node = cluster.servers[0].node.name
    FaultInjector(tb, FaultPlan(seed=2, events=(
        LinkFlap(flap_node, start=100 * us, duration=8 * ms),
    ))).arm()
    key = keys_on_shard(cluster, keys, 0)[0]
    out = {}

    def client():
        router = yield from cluster.connect(tb.node(4),
                                            rng=random.Random(3))
        yield tb.sim.timeout(300 * us)
        try:
            yield from router.Get(key)
            out["error"] = None
        except TTransportException as exc:
            out["error"] = exc
        router.close()

    tb.sim.run(tb.sim.process(client()))
    assert isinstance(out["error"], TTransportException)


def test_router_op_counters_count_issued_calls_only():
    """``hatkv.router.shard<i>.ops`` counts calls *issued* to shard i.  A
    write that dies on its primary never contacts its replicas (that is
    the primary-first rule), so it must not count them either -- pre-fix,
    Put/Delete bumped every replica's counter before the primary's write
    was sent, and three failed Puts read as three ops on a shard no
    request ever reached."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=6)
        cluster, keys = build_cluster(tb)
        flap_node = cluster.servers[0].node.name
        FaultInjector(tb, FaultPlan(seed=3, events=(
            LinkFlap(flap_node, start=150 * us, duration=8 * ms),
        ))).arm()
        shard0_keys = keys_on_shard(cluster, keys, 0)
        out = {"write_errors": 0}

        def client():
            router = yield from cluster.connect(tb.node(4),
                                                rng=random.Random(7))
            yield tb.sim.timeout(300 * us)     # well inside the flap window
            writes = [router.Put(key, b"clobber") for key in shard0_keys[:3]]
            writes += [router.Delete(key) for key in shard0_keys[3:5]]
            for write in writes:
                try:
                    yield from write
                except TTransportException:
                    out["write_errors"] += 1
            router.close()

        tb.sim.run(tb.sim.process(client()))
        assert out["write_errors"] == 5
        router_ops = [reg.counter(f"hatkv.router.shard{i}.ops").value
                      for i in range(2)]
        handled = [reg.counter(f"hatkv.shard{i}.{op}").value
                   for i in range(2) for op in ("put", "delete")]
        assert handled == [0, 0, 0, 0]         # no write reached a handler
        assert router_ops == [5, 0], router_ops
