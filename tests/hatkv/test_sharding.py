"""Sharded HatKV: ring, router, replication, and metrics tests."""

import pytest

from repro import obs
from repro.bench import PhasedRun
from repro.hatkv import HashRing, RouterInUseError, ShardedKVCluster
from repro.obs import trace as obstrace
from repro.sim.units import us
from repro.testbed import Testbed
from repro.ycsb import WORKLOAD_B, measurement_result, run_ycsb_phased
from repro.ycsb.workload import Workload

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.ObsInstallOrderWarning")


def keys_of(n):
    return [Workload.key_of(i) for i in range(n)]


# -- the hash ring ------------------------------------------------------------

def test_ring_is_deterministic_and_total():
    a = HashRing(4, vnodes=64, seed=0)
    b = HashRing(4, vnodes=64, seed=0)
    for key in keys_of(200):
        shard = a.shard_of(key)
        assert shard == b.shard_of(key)
        assert 0 <= shard < 4


def test_ring_balances_with_vnodes():
    ring = HashRing(4, vnodes=64)
    counts = ring.distribution(keys_of(4000))
    assert sum(counts) == 4000
    for n in counts:
        assert 0.15 < n / 4000 < 0.40, counts


def test_ring_growth_remaps_only_a_fraction():
    # The consistent-hashing property: going 3 -> 4 shards moves roughly
    # 1/4 of the keys, not all of them (modulo hashing would move ~3/4).
    small = HashRing(3, vnodes=64)
    grown = HashRing(4, vnodes=64)
    keys = keys_of(3000)
    moved = sum(1 for k in keys if small.shard_of(k) != grown.shard_of(k))
    assert moved / 3000 < 0.45


def test_ring_rejects_bad_shape():
    with pytest.raises(ValueError):
        HashRing(0)


# -- cluster wiring -----------------------------------------------------------

def test_cluster_places_one_server_per_node():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 4)
    assert len(cluster.servers) == 4
    assert len({id(s.node) for s in cluster.servers}) == 4
    assert [s.shard for s in cluster.servers] == [0, 1, 2, 3]
    assert cluster.nodes == tb.nodes[:4]


def test_cluster_validates_replicas():
    tb = Testbed(n_nodes=8)
    with pytest.raises(ValueError):
        ShardedKVCluster(tb, 2, replicas=3)


def test_replica_shards_are_ring_successors():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 4, replicas=2)
    assert cluster.replica_shards(0) == (0, 1)
    assert cluster.replica_shards(3) == (3, 0)
    key = keys_of(1)[0]
    pref = cluster.preference(key)
    assert pref[0] == cluster.primary(key) and len(pref) == 2


def test_load_routes_keys_to_owning_shards_only():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 4, replicas=1)
    items = [(k, b"v" * 50) for k in keys_of(400)]
    cluster.load(items)
    per_shard = [s.backend.env.stat().entries for s in cluster.servers]
    assert sum(per_shard) == 400          # replicas=1: each key lives once
    expected = cluster.ring.distribution(k for k, _ in items)
    assert per_shard == expected


def test_load_replicates_to_successors():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 4, replicas=2)
    items = [(k, b"v" * 50) for k in keys_of(400)]
    cluster.load(items)
    per_shard = [s.backend.env.stat().entries for s in cluster.servers]
    assert sum(per_shard) == 800          # every key lives twice


def test_load_is_all_or_nothing():
    """An item that raises mid-load aborts every shard's txn: nothing of
    the load lands, and the writer is free for the next load."""
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, replicas=2)
    good = [(k, b"v" * 50) for k in keys_of(10)]
    with pytest.raises(TypeError):
        cluster.load(good + [("not-bytes", b"v")])
    assert [s.backend.env.stat().entries for s in cluster.servers] == [0, 0]
    assert [s.backend.env.stat().data_bytes
            for s in cluster.servers] == [0, 0]
    cluster.load(good)
    assert [s.backend.env.stat().entries
            for s in cluster.servers] == [10, 10]


def test_testbed_split_helper():
    tb = Testbed(n_nodes=10)
    servers, clients = tb.split(4, 4)
    assert servers == tb.nodes[:4] and clients == tb.nodes[4:8]
    assert tb.split(2) == (tb.nodes[:2], tb.nodes[2:])
    with pytest.raises(ValueError):
        tb.split(10)
    with pytest.raises(ValueError):
        tb.split(8, 5)


# -- routing ------------------------------------------------------------------

def test_router_roundtrip_and_empty_vs_missing():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2).start()
    cluster.load((k, b"seed" * 25) for k in keys_of(50))
    out = {}

    def client():
        r = yield from cluster.connect(tb.node(4))
        key = Workload.key_of(3)
        yield from r.Put(key, b"fresh" * 20)
        got = yield from r.Get(key)
        out["roundtrip"] = got.found and got.value == b"fresh" * 20
        # GetResult keeps absent distinguishable from stored-empty even
        # through the router (the conflation was satellite bug #1).
        yield from r.Put(Workload.key_of(900), b"")
        out["empty"] = yield from r.Get(Workload.key_of(900))
        out["absent"] = yield from r.Get(Workload.key_of(901))
        r.close()

    tb.sim.run(tb.sim.process(client()))
    assert out["roundtrip"]
    assert out["empty"].found and out["empty"].value == b""
    assert not out["absent"].found


def test_router_shared_by_two_processes_refuses_the_second():
    # One router, two processes, 5 Gets each: the stubs' one seqid counter
    # per shard used to hand each process the other's replies (4 of 10
    # Gets failed "expected seqid ..."); now the second process is refused
    # at once, typed, and the first is served whole.
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2).start()
    items = {k: k * 10 for k in keys_of(10)}
    cluster.load(items.items())
    keys = list(items)
    router = {}
    outcomes = {0: [], 1: []}

    def setup():
        router["r"] = yield from cluster.connect(tb.node(4))

    def client(i):
        r = router["r"]
        for key in keys[5 * i:5 * i + 5]:
            t0 = tb.sim.now
            try:
                got = yield from r.Get(key)
            except RouterInUseError:
                outcomes[i].append(("refused", tb.sim.now == t0))
            else:
                outcomes[i].append(got.found and got.value == items[key])

    tb.sim.run(tb.sim.process(setup()))
    procs = [tb.sim.process(client(i)) for i in (0, 1)]
    for p in procs:
        tb.sim.run(p)
    assert outcomes[0] == [True] * 5
    assert outcomes[1] == [("refused", True)] * 5
    # once the first process is done, the router serves the second
    tb.sim.run(tb.sim.process(client(1)))
    assert outcomes[1][5:] == [True] * 5


def test_router_writes_land_on_owning_shard():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 4, replicas=1).start()
    keys = keys_of(40)

    def client():
        r = yield from cluster.connect(tb.node(4))
        for k in keys:
            yield from r.Put(k, b"x" * 100)
        r.close()

    tb.sim.run(tb.sim.process(client()))
    per_shard = [s.backend.env.stat().entries for s in cluster.servers]
    assert per_shard == cluster.ring.distribution(keys)


def test_router_multiget_reassembles_request_order():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 4).start()
    items = [(Workload.key_of(i), f"v{i}".encode() * 20) for i in range(30)]
    cluster.load(items)
    out = {}

    def client():
        r = yield from cluster.connect(tb.node(4))
        keys = [k for k, _ in items] + [Workload.key_of(999)]
        out["values"] = yield from r.MultiGet(keys)
        r.close()

    tb.sim.run(tb.sim.process(client()))
    assert out["values"] == [v for _, v in items] + [b""]


def test_router_multiput_replicates_and_scan_merges():
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, replicas=2).start()
    keys = keys_of(20)
    values = [f"val{i}".encode() * 10 for i in range(20)]
    out = {}

    def client():
        r = yield from cluster.connect(tb.node(4))
        yield from r.MultiPut(keys, values)
        flat = yield from r.Scan(keys[0], 10)
        out["scan"] = [(flat[i], flat[i + 1])
                       for i in range(0, len(flat), 2)]
        r.close()

    tb.sim.run(tb.sim.process(client()))
    # replicas=2 over 2 shards: every shard holds the full keyspace
    for s in cluster.servers:
        assert s.backend.env.stat().entries == 20
    assert out["scan"] == sorted(zip(keys, values))[:10]


def test_ycsb_runs_over_sharded_cluster():
    tb = Testbed(n_nodes=10)
    cluster = ShardedKVCluster(tb, 2).start()
    run = PhasedRun(tb.sim, "sharded", warmup=50 * us,
                    measurement=200 * us)
    run_ycsb_phased(cluster, cluster.connect, WORKLOAD_B, testbed=tb,
                    run=run, n_clients=4)
    result = measurement_result(run)
    for op, weight in WORKLOAD_B.mix:
        if weight > 0:
            assert result.per_op[op].count > 0, op
    assert result.throughput_ops > 0


# -- observability ------------------------------------------------------------

def test_per_shard_metrics_and_key_distribution_gauge():
    with obs.installed() as reg:
        tb = Testbed(n_nodes=8)
        cluster = ShardedKVCluster(tb, 2).start()
        items = [(k, b"v" * 50) for k in keys_of(100)]
        cluster.load(items)

        def client():
            r = yield from cluster.connect(tb.node(4))
            for k, _ in items[:10]:
                yield from r.Get(k)
            r.close()

        tb.sim.run(tb.sim.process(client()))
        dist = cluster.ring.distribution(k for k, _ in items)
        for i in range(2):
            assert reg.gauge(f"hatkv.router.keys.shard{i}").value == dist[i]
        shard_gets = [reg.counter(f"hatkv.shard{i}.get").value
                      for i in range(2)]
        router_ops = [reg.counter(f"hatkv.router.shard{i}.ops").value
                      for i in range(2)]
        assert sum(shard_gets) == 10      # handler-side per-shard counters
        assert sum(router_ops) == 10      # router-side routing counters
        assert shard_gets == router_ops


def test_trace_annotates_shard_on_hint_select():
    with obstrace.installed(sample_rate=1.0) as col:
        tb = Testbed(n_nodes=8)
        cluster = ShardedKVCluster(tb, 2).start()
        cluster.load((k, b"v" * 50) for k in keys_of(20))

        def client():
            r = yield from cluster.connect(tb.node(4))
            for k in keys_of(6):
                yield from r.Get(k)
            r.close()

        tb.sim.run(tb.sim.process(client()))
        shards = set()
        for spans in col.traces().values():
            for s in spans:
                if s.name == "hint_select" and "shard" in s.attrs:
                    shards.add(s.attrs["shard"])
        assert shards == {0, 1}, \
            "hint_select stages must carry the routed shard id"


# -- scan correctness across replication and failover -------------------------

def test_scan_prefers_primary_row_over_stale_replica_copy():
    # Regression: Scan used to sort the merged (key, value) rows and keep
    # the first occurrence of each key -- i.e. the lexicographically
    # SMALLEST VALUE won the dedupe.  A replica lagging its primary (a
    # write applies primary-first) could therefore shadow the fresh value
    # whenever the stale bytes happened to sort lower.  The merge now
    # tracks which shard answered and prefers the key's ring owner.
    tb = Testbed(n_nodes=8)
    cluster = ShardedKVCluster(tb, 2, replicas=2).start()
    key = Workload.key_of(5)
    p = cluster.primary(key)
    r = cluster.replica_shards(p)[1]
    # Hand-place a replication lag: fresh value on the primary, stale on
    # the replica, with the stale bytes sorting strictly first.
    with cluster.servers[p].backend.env.begin(write=True) as txn:
        txn.put(key, b"z-fresh")
    with cluster.servers[r].backend.env.begin(write=True) as txn:
        txn.put(key, b"a-stale")
    out = {}

    def client():
        router = yield from cluster.connect(tb.node(4))
        out["flat"] = yield from router.Scan(b"", 10)
        router.close()

    tb.sim.run(tb.sim.process(client()))
    pairs = dict(zip(out["flat"][::2], out["flat"][1::2]))
    assert pairs[key] == b"z-fresh", \
        "scan must surface the primary's row, not a stale replica copy"


def test_scan_survives_mid_scan_failover_without_duplicates():
    with obs.installed() as reg:
        tb = Testbed(n_nodes=8)
        cluster = ShardedKVCluster(tb, 2, replicas=2).start()
        items = [(k, b"v" * 30) for k in keys_of(20)]
        cluster.load(items)
        # One shard is dark for the whole scan: its leg must fail over to
        # the replica, and the merged result must still be exact.
        cluster.servers[0].node.crash()
        out = {}

        def client():
            router = yield from cluster.connect(tb.node(4))
            out["flat"] = yield from router.Scan(b"", 20)
            router.close()

        tb.sim.run(tb.sim.process(client()))
        pairs = dict(zip(out["flat"][::2], out["flat"][1::2]))
        assert len(out["flat"]) == 2 * len(pairs), "duplicate keys in scan"
        assert pairs == dict(items)
        # The dark leg fails over in the router, whenever the transport
        # notices the dead peer.
        assert reg.counter("hatkv.router.read_failovers").value >= 1
