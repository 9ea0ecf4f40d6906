"""Cross-node trace propagation, including under faults: a faulted call
(timeout -> retry -> failover) must yield ONE trace whose attempt spans,
fault events, and server-side spans all link back to the client root."""

import random

import pytest

from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.obs import trace as obstrace
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException
from repro.idl import load_idl

KV_IDL = """
service MiniKV {
    hint: concurrency = 4;

    string Get(1: string k) [ hint: perf_goal = latency; ]
    void Put(1: string k, 2: string v) [ hint: perf_goal = latency; ]
    string Slow(1: string k) [ hint: perf_goal = latency; ]
    string Legacy(1: string k) [ hint: transport = tcp; ]
}
"""


class KVHandler:
    def __init__(self, tb):
        self.tb = tb
        self.store = {}

    def Get(self, k):
        return self.store.get(k, "")

    def Put(self, k, v):
        self.store[k] = v

    def Slow(self, k):
        yield self.tb.sim.timeout(10 * ms)
        return k

    def Legacy(self, k):
        return self.store.get(k, "")


@pytest.fixture(scope="module")
def gen():
    return load_idl(KV_IDL, "trace_prop_gen")


def ancestors(span, by_id):
    """Walk parent links to the trace root; returns the chain (nearest
    first).  Fails the test on a broken link inside the same trace."""
    chain = []
    cur = span
    while cur.parent_span_id:
        cur = by_id[cur.parent_span_id]
        chain.append(cur)
    return chain


def trace_of(col, root_name):
    """The one committed trace whose client root is ``root_name``."""
    matches = [spans for spans in col.traces().values()
               if any(s.kind == "client" and not s.parent_span_id
                      and s.name == root_name for s in spans)]
    assert len(matches) == 1, (
        f"expected exactly one {root_name!r} trace, got {len(matches)}")
    return matches[0]


# -- the healthy path --------------------------------------------------------

def test_server_spans_are_descendants_of_the_client_call(gen):
    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)
        handler = KVHandler(tb)
        HatRpcServer(tb.node(0), gen, "MiniKV", handler).start()

        def run():
            stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen,
                                             "MiniKV")
            yield from stub.Put("k", "v")
            return (yield from stub.Get("k"))

        assert tb.sim.run(tb.sim.process(run())) == "v"
        tb.sim.run()

        spans = trace_of(col, "Get")
        by_id = {s.span_id: s for s in spans}
        root = next(s for s in spans if not s.parent_span_id)
        assert root.node == "node1"

        server = next(s for s in spans if s.kind == "server")
        assert server.node == "node0"
        chain = ancestors(server, by_id)
        assert chain[-1] is root                    # true descendant
        assert chain[0].name.startswith("attempt#")  # parented per attempt

        handler_stage = next(s for s in spans if s.name == "handler")
        assert ancestors(handler_stage, by_id)[-1] is root
        assert handler_stage.node == "node0"


def test_tcp_channel_traces_cross_node_too(gen):
    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)
        handler = KVHandler(tb)
        handler.store["k"] = "v"
        HatRpcServer(tb.node(0), gen, "MiniKV", handler).start()

        def run():
            stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen,
                                             "MiniKV")
            return (yield from stub.Legacy("k"))     # hinted transport=tcp

        assert tb.sim.run(tb.sim.process(run())) == "v"
        tb.sim.run()

        spans = trace_of(col, "Legacy")
        by_id = {s.span_id: s for s in spans}
        server = next(s for s in spans if s.kind == "server")
        assert server.attrs.get("protocol") == "tcp"
        root = next(s for s in spans if not s.parent_span_id)
        assert ancestors(server, by_id)[-1] is root
        assert {"poll", "dispatch", "handler", "reply"} <= {
            s.name for s in spans if s.node == "node0"}


# -- satellite: one trace through timeout -> retry -> failover ---------------

def test_faulted_call_yields_one_trace_covering_every_attempt(gen):
    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)
        handler = KVHandler(tb)
        handler.store["k"] = "v"
        server = HatRpcServer(tb.node(0), gen, "MiniKV", handler).start()
        # Kill every RDMA listener: the Get must retry on its primary,
        # trip the breaker, and fail over to the Legacy TCP channel.
        for ch, srv in zip(server.plan.channels, server.servers):
            if ch.transport == "rdma":
                srv.stop()

        def run():
            stub = yield from hatrpc_connect(
                tb.node(1), tb.node(0), gen, "MiniKV",
                idempotent=("Get",), rng=random.Random(42))
            value = yield from stub.Get("k")
            return value, stub._hatrpc.engine

        value, engine = tb.sim.run(tb.sim.process(run()))
        tb.sim.run()
        assert value == "v"
        assert engine.faults.failovers == 1
        assert engine.faults.retries >= 1

        spans = trace_of(col, "Get")                # ONE trace, all attempts
        by_id = {s.span_id: s for s in spans}
        root = next(s for s in spans if not s.parent_span_id)

        attempts = [s for s in spans if s.name.startswith("attempt#")]
        assert len(attempts) >= 2                   # failed + failover
        assert all(s.parent_span_id == root.span_id for s in attempts)
        assert any(s.status == "error" for s in attempts)
        ok = [s for s in attempts if s.status == "ok"]
        assert len(ok) == 1

        events = {s.name for s in spans if s.kind == "event"}
        assert "retry" in events and "failover" in events

        # The successful attempt reached the TCP server; its server span
        # parents to that attempt -- the whole story in one trace.
        server_spans = [s for s in spans if s.kind == "server"]
        assert server_spans, "no server span survived the failover"
        for srv_span in server_spans:
            assert ancestors(srv_span, by_id)[-1] is root
        assert any(s.parent_span_id == ok[0].span_id for s in server_spans)


def test_timeout_commits_the_trace_even_when_unsampled(gen):
    # sample_rate=0: nothing commits unless a call faults.  The deadline
    # expiry marks the call faulted, so the whole buffered trace commits.
    with obstrace.installed(sample_rate=0.0) as col:
        tb = Testbed(n_nodes=2)
        handler = KVHandler(tb)
        HatRpcServer(tb.node(0), gen, "MiniKV", handler).start()

        def run():
            stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen,
                                             "MiniKV", deadline=200 * us)
            with pytest.raises(TTransportException) as ei:
                yield from stub.Slow("x")
            assert ei.value.type == TTransportException.TIMED_OUT
            yield from stub.Put("k", "v")          # healthy call: dropped
            return stub._hatrpc.engine

        engine = tb.sim.run(tb.sim.process(run()))
        assert engine.faults.timeouts == 1

        spans = trace_of(col, "Slow")
        root = next(s for s in spans if not s.parent_span_id)
        assert root.status != "ok"
        assert any(s.name == "timeout" and s.kind == "event" for s in spans)
        # the healthy Put stayed unsampled
        assert not any(s.name == "Put" for s in col.spans)
        assert col.dropped_calls >= 1


# -- satellite: FaultCounters stay deduplicated ------------------------------

def test_tracer_reads_the_engines_fault_counters(gen):
    """Each retry / failover decision bumps exactly one ``engine.faults``
    counter and appends exactly one ``fault_trace`` entry; the call's trace
    mirrors those entries as events instead of keeping counters of its
    own."""
    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)
        handler = KVHandler(tb)
        handler.store["k"] = "v"
        server = HatRpcServer(tb.node(0), gen, "MiniKV", handler).start()
        for ch, srv in zip(server.plan.channels, server.servers):
            if ch.transport == "rdma":
                srv.stop()

        def run():
            stub = yield from hatrpc_connect(
                tb.node(1), tb.node(0), gen, "MiniKV",
                idempotent=("Get",), rng=random.Random(42))
            yield from stub.Get("k")
            return stub._hatrpc.engine

        engine = tb.sim.run(tb.sim.process(run()))
        events = [s.name for s in trace_of(col, "Get") if s.kind == "event"]
    kinds = [kind for _, kind, *_ in engine.fault_trace]
    assert engine.faults.failovers == kinds.count("failover") == 1
    assert engine.faults.retries == kinds.count("retry") >= 1
    assert events == kinds


# -- one root span per call: routing and sizes --------------------------------

SVC_IDL = """
service Svc {
    string Fast(1: string m) [ hint: perf_goal = latency; ]
    binary Bulk(1: binary b) [ hint: payload_size = 32KB,
                                     perf_goal = res_util; ]
}
"""


@pytest.fixture(scope="module")
def svc_gen():
    return load_idl(SVC_IDL, "trace_svc_gen")


def _run_svc(svc_gen, body):
    """Run ``body(stub)`` on a fresh two-node bed with ``obs.trace``
    installed; returns (collector, engine plan, body's result)."""
    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)

        class H:
            def Fast(self, m):
                return m

            def Bulk(self, b):
                return b

        HatRpcServer(tb.node(0), svc_gen, "Svc", H()).start()

        def client():
            stub = yield from hatrpc_connect(tb.node(1), tb.node(0),
                                             svc_gen, "Svc")
            out = yield from body(stub)
            return stub._hatrpc.engine.plan, out

        plan, out = tb.sim.run(tb.sim.process(client()))
        tb.sim.run()
    return col, plan, out


def _client_roots(col):
    roots = [s for s in col.spans if s.kind == "client"
             and not s.parent_span_id]
    return sorted(roots, key=lambda s: s.start)


def _ok_attempt(col, root):
    (ok,) = [s for s in col.spans if s.parent_span_id == root.span_id
             and s.name.startswith("attempt#") and s.status == "ok"]
    return ok


def test_root_spans_record_routing_and_sizes(svc_gen):
    def body(stub):
        yield from stub.Fast("hello")
        yield from stub.Fast("again")
        yield from stub.Bulk(b"z" * 8192)

    col, plan, _ = _run_svc(svc_gen, body)
    roots = _client_roots(col)
    assert [r.name for r in roots] == ["Fast", "Fast", "Bulk"]
    fast, fast2, bulk = roots
    for root in roots:
        ch = plan.channel_for(root.name)
        assert root.attrs["protocol"] == ch.protocol
        assert root.attrs["transport"] == ch.transport
        assert _ok_attempt(col, root).attrs["channel"] == ch.index
        assert root.end > root.start
    assert fast.attrs["protocol"] == "direct_writeimm"
    assert bulk.attrs["protocol"] == "write_rndv"
    assert (_ok_attempt(col, fast).attrs["channel"]
            != _ok_attempt(col, bulk).attrs["channel"])
    assert bulk.attrs["req_bytes"] > 8192  # payload + thrift framing
    assert bulk.attrs["resp_bytes"] > 8192
    assert fast2.start >= fast.end


def test_async_calls_record_root_spans_too(svc_gen):
    def body(stub):
        caller = stub._hatrpc.async_caller()
        handles = []
        for method, arg in (("Fast", "one"), ("Bulk", b"z" * 8192),
                            ("Fast", "three")):
            handles.append((yield from caller.call_async(method, arg)))
        replies = []
        for h in handles:
            replies.append((yield from h.wait()))
        return replies

    col, plan, replies = _run_svc(svc_gen, body)
    assert replies == ["one", b"z" * 8192, "three"]
    roots = _client_roots(col)
    assert [r.name for r in roots] == ["Fast", "Bulk", "Fast"]
    for root in roots:
        ch = plan.channel_for(root.name)
        assert root.attrs["protocol"] == ch.protocol
        assert _ok_attempt(col, root).attrs["channel"] == ch.index
        assert root.end > root.start
    fast, bulk, _ = roots
    assert bulk.attrs["req_bytes"] > 8192 and bulk.attrs["resp_bytes"] > 8192
    assert 0 < fast.attrs["req_bytes"] < 100
    assert 0 < fast.attrs["resp_bytes"] < 100
