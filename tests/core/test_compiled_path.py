"""The workload path never leaves the compiled binary codec.

Generated structs take their compiled codec, and fall back to the
per-value field loop ``read_fields`` only at a field the compiled decoder
does not take; a lapse on either peer would still answer every call
correctly and show only as host time.  Here the per-value methods raise,
and every call kind the workloads make must still succeed: an Echo over an
RDMA channel and over a TCP channel of a hybrid plan, pipelined
``call_async`` calls gathered together, and a HatKV ``Get`` and ``Put``.
"""

import pytest

from repro.core.engine import plan_with_window
from repro.core.runtime import (HatRpcServer, gather, hatrpc_connect,
                                service_plan_of)
from repro.hatkv import HatKVServer, connect_hatkv, load_hatkv_module
from repro.idl import load_idl
from repro.testbed import Testbed
from repro.thrift import TBinaryProtocol

IDL = """
service Path {
    binary Echo(1: binary payload) [
        hint: perf_goal = latency, payload_size = 64;
    ]
    binary Legacy(1: binary payload) [
        hint: transport = tcp;
    ]
}
"""

PER_VALUE = ("write_field_begin", "read_field_begin", "write_i32", "read_i32")


@pytest.fixture
def compiled_only(monkeypatch):
    for name in PER_VALUE:
        def refuse(self, *args, _name=name):
            raise AssertionError(f"TBinaryProtocol.{_name} called")
        monkeypatch.setattr(TBinaryProtocol, name, refuse)


@pytest.fixture(scope="module")
def gen():
    return load_idl(IDL, "compiled_path_gen")


class EchoHandler:
    def Echo(self, payload):
        return payload

    def Legacy(self, payload):
        return payload[::-1]


def test_echo_over_rdma_and_tcp_channels(compiled_only, gen):
    plan = service_plan_of(gen, "Path")
    assert plan.channel_for("Echo").transport == "rdma"
    assert plan.channel_for("Legacy").transport == "tcp"
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "Path", EchoHandler()).start()
    payload = bytes(range(64))

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Path")
        return ((yield from stub.Echo(payload)),
                (yield from stub.Legacy(payload)))

    assert tb.sim.run(tb.sim.process(client())) == (payload, payload[::-1])


def test_pipelined_call_async_then_gather(compiled_only, gen):
    plan = plan_with_window(service_plan_of(gen, "Path"), 4)
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "Path", EchoHandler(), plan=plan).start()
    payloads = [bytes([i]) * 64 for i in range(6)]

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Path",
                                         plan=plan)
        caller = stub._hatrpc.async_caller()
        handles = []
        for p in payloads:
            handles.append((yield from caller.call_async("Echo", p)))
        return (yield from gather(handles))

    assert tb.sim.run(tb.sim.process(client())) == payloads


def test_hatkv_get_and_put(compiled_only):
    kv_gen = load_hatkv_module("function", concurrency=4)
    tb = Testbed(n_nodes=2)
    HatKVServer(tb.node(0), kv_gen, concurrency=4).start()
    key, value = b"key".ljust(24, b"0"), b"value" * 200

    def client():
        kv = yield from connect_hatkv(tb.node(1), tb.node(0), kv_gen,
                                      concurrency=4)
        yield from kv.Put(key, value)
        return (yield from kv.Get(key))

    got = tb.sim.run(tb.sim.process(client()))
    assert got.found and got.value == value
