"""RPC tracing tests."""

import pytest

from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.core.tracing import Tracer, attach_tracer
from repro.idl import load_idl
from repro.testbed import Testbed

IDL = """
service Svc {
    string Fast(1: string m) [ hint: perf_goal = latency; ]
    binary Bulk(1: binary b) [ hint: payload_size = 32KB,
                                     perf_goal = res_util; ]
}
"""


@pytest.fixture
def setup():
    gen = load_idl(IDL, "trace_gen")
    tb = Testbed(n_nodes=2)

    class H:
        def Fast(self, m):
            return m

        def Bulk(self, b):
            return b

    HatRpcServer(tb.node(0), gen, "Svc", H()).start()
    return tb, gen


def test_spans_record_routing_and_sizes(setup):
    tb, gen = setup
    box = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Svc")
        tracer = attach_tracer(stub._hatrpc.engine)
        yield from stub.Fast("hello")
        yield from stub.Fast("again")
        yield from stub.Bulk(b"z" * 8192)
        box["tracer"] = tracer

    tb.sim.run(tb.sim.process(client()))
    tracer = box["tracer"]
    assert len(tracer.spans) == 3
    fast, fast2, bulk = tracer.spans
    assert fast.function == "Fast" and bulk.function == "Bulk"
    assert fast.protocol == "direct_writeimm"
    assert bulk.protocol == "write_rndv"
    assert fast.channel != bulk.channel
    assert bulk.request_bytes > 8192  # payload + thrift framing
    assert all(s.latency > 0 for s in tracer.spans)
    assert fast2.start >= fast.end


def test_summary_aggregates_per_function(setup):
    tb, gen = setup
    box = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Svc")
        box["tracer"] = attach_tracer(stub._hatrpc.engine)
        for _ in range(5):
            yield from stub.Fast("x")
        yield from stub.Bulk(b"y" * 100)

    tb.sim.run(tb.sim.process(client()))
    summary = box["tracer"].by_function()
    assert summary["Fast"].calls == 5
    assert summary["Bulk"].calls == 1
    assert summary["Fast"].mean_latency > 0
    lines = box["tracer"].summary_lines()
    assert any("Fast" in line for line in lines)


def test_max_spans_drops_and_counts(setup):
    tb, gen = setup
    box = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Svc")
        box["tracer"] = attach_tracer(stub._hatrpc.engine,
                                      Tracer(max_spans=3))
        for _ in range(10):
            yield from stub.Fast("x")

    tb.sim.run(tb.sim.process(client()))
    t = box["tracer"]
    assert len(t.spans) == 3
    assert t.dropped == 7
    assert any("dropped" in line for line in t.summary_lines())


def test_async_calls_record_spans_too(setup):
    # Regression: attach_tracer wrapped engine.call only, so AsyncCaller /
    # router traffic (engine.call_async) left no spans.
    tb, gen = setup
    box = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Svc")
        engine = stub._hatrpc.engine
        box["tracer"] = attach_tracer(engine)
        box["plan"] = engine.plan
        caller = stub._hatrpc.async_caller()
        handles = []
        for method, arg in (("Fast", "one"), ("Bulk", b"z" * 8192),
                            ("Fast", "three")):
            handles.append((yield from caller.call_async(method, arg)))
        box["replies"] = []
        for h in handles:
            box["replies"].append((yield from h.wait()))

    tb.sim.run(tb.sim.process(client()))
    assert box["replies"] == ["one", b"z" * 8192, "three"]
    spans = sorted(box["tracer"].spans, key=lambda s: s.start)
    assert [s.function for s in spans] == ["Fast", "Bulk", "Fast"]
    for s in spans:
        ch = box["plan"].channel_for(s.function)
        assert (s.channel, s.protocol) == (ch.index, ch.protocol)
        assert s.latency > 0
    fast, bulk, _ = spans
    assert bulk.request_bytes > 8192 and bulk.response_bytes > 8192
    assert 0 < fast.request_bytes < 100 and 0 < fast.response_bytes < 100
