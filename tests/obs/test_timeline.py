"""Timeline exporter: valid Chrome trace_event JSON."""

import json
import random
from types import SimpleNamespace

from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.idl import load_idl
from repro.obs import trace as obstrace
from repro.obs.timeline import TimelineExporter, export_chrome_trace
from repro.obs.trace import Span
from repro.testbed import Testbed


def _span(name="Echo", span_id="s1", parent="", kind="client",
          start=1e-6, end=4e-6):
    return Span(trace_id="t1", span_id=span_id, parent_span_id=parent,
                name=name, kind=kind, node="node1", start=start, end=end,
                attrs={"protocol": "direct_writeimm", "req_bytes": 64})


def test_complete_event_fields():
    ex = TimelineExporter()
    ex.add_complete("Echo", start=2e-6, duration=3e-6, pid=1, tid=7)
    (ev,) = ex.events
    assert ev["ph"] == "X"
    assert ev["ts"] == 2.0          # sim seconds -> microseconds
    assert ev["dur"] == 3.0
    assert ev["pid"] == 1 and ev["tid"] == 7
    assert ev["name"] == "Echo"


def test_instant_event_fields():
    ex = TimelineExporter()
    ex.add_instant("retry", ts=5e-6, tid=3)
    (inst,) = ex.events
    assert inst["ph"] == "i" and inst["s"] == "t"
    assert inst["ts"] == 5.0 and inst["tid"] == 3


def test_fault_trace_becomes_instants():
    ex = TimelineExporter()
    n = ex.add_fault_trace([(1e-5, "retry", "Echo", 0, "timeout"),
                            (2e-5, "failover", "Echo", -1, "breaker")])
    assert n == 2
    evs = [e for e in ex.events if e["ph"] == "i"]
    assert evs[0]["name"] == "retry" and evs[0]["tid"] == 0
    assert evs[1]["tid"] == 999     # sentinel track for channel-less events


def test_json_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    collector = SimpleNamespace(spans=[
        _span(), _span("post", "s2", "s1", "stage", 2e-6, 3e-6)])
    engine = SimpleNamespace(node=SimpleNamespace(name="node1"),
                             fault_trace=[(5e-6, "retry", "Echo", 0, "x")])
    ex = export_chrome_trace(path, collector=collector, engine=engine)
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ns"
    assert isinstance(doc["traceEvents"], list)
    # Every event carries the required trace_event fields.
    for ev in doc["traceEvents"]:
        assert "ph" in ev and "pid" in ev and "name" in ev
        if ev["ph"] != "M":
            assert "ts" in ev
    assert doc == ex.to_dict()


def test_metadata_deduped():
    ex = TimelineExporter()
    ex.add_trace_spans([_span(), _span("post", "s2", "s1", "stage")])
    meta = [e for e in ex.events if e["ph"] == "M"]
    assert len(meta) == 2  # one process_name + one thread_name


IDL = """
service Faulty {
    string Get(1: string k) [ hint: perf_goal = latency; ]
    string Legacy(1: string k) [ hint: transport = tcp; ]
}
"""


def test_fault_instants_land_on_the_client_nodes_process(tmp_path):
    gen = load_idl(IDL, "timeline_faulty_gen")

    class H:
        def Get(self, k):
            return k

        def Legacy(self, k):
            return k

    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)
        server = HatRpcServer(tb.node(0), gen, "Faulty", H()).start()
        # No RDMA listener: Get retries, then fails over to the TCP channel.
        for ch, srv in zip(server.plan.channels, server.endpoint.servers):
            if ch.transport == "rdma":
                srv.stop()

        def run():
            stub = yield from hatrpc_connect(
                tb.node(1), tb.node(0), gen, "Faulty",
                idempotent=("Get",), rng=random.Random(7))
            assert (yield from stub.Get("k")) == "k"
            return stub._hatrpc.engine

        engine = tb.sim.run(tb.sim.process(run()))
        tb.sim.run()
        path = tmp_path / "trace.json"
        export_chrome_trace(path, collector=col, engine=engine)

    events = json.loads(path.read_text())["traceEvents"]
    named = {e["pid"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert {e["pid"] for e in events} <= named
    faults = [e for e in events
              if e["ph"] == "i" and "trace_id" not in e.get("args", {})]
    assert faults and len(faults) == len(engine.fault_trace)
    client_pids = {e["pid"] for e in events if e["ph"] == "X"
                   and e["args"].get("node") == engine.node.name}
    assert client_pids and {e["pid"] for e in faults} == client_pids
