"""End-to-end HatRPC runtime tests: IDL -> codegen -> engine -> RDMA."""

import pytest

from repro import frame
from repro.core.engine import build_service_plan, plan_with_window
from repro.core.runtime import (HatRpcServer, RdmaChannel, hatrpc_connect,
                                service_plan_of)
from repro.core.tuner import HintTuner
from repro.idl import load_idl
from repro.protocols import HDR_BYTES
from repro.protocols.serverbypass import RFP_FIRST_READ
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.thrift import TBinaryProtocol, TMemoryBuffer, TMessageType
from repro.verbs.cq import PollMode
from repro.verbs.qp import QP
from repro.verbs.types import Opcode

MIX_IDL = """
exception Boom { 1: string why }

service Mixed {
    hint: concurrency = 4;

    string Fast(1: string msg) [
        hint: perf_goal = latency, payload_size = 512;
    ]
    binary Bulk(1: binary blob) [
        hint: perf_goal = throughput, payload_size = 128KB, concurrency = 64;
    ]
    i32 Risky(1: i32 x) throws (1: Boom kaboom),
    oneway void Fire(1: i64 token),
    string Legacy(1: string msg) [
        hint: transport = tcp;
    ]
}
"""


class MixedHandler:
    def __init__(self):
        self.fired = []

    def Fast(self, msg):
        return msg.upper()

    def Bulk(self, blob):
        return blob[::-1]

    def Risky(self, x):
        if x < 0:
            import kv_gen_does_not_exist  # noqa: F401 - raises
        return x * 2

    def Fire(self, token):
        self.fired.append(token)

    def Legacy(self, msg):
        return "legacy:" + msg


@pytest.fixture(scope="module")
def gen():
    return load_idl(MIX_IDL, "mixed_gen")


@pytest.fixture
def tb():
    return Testbed(n_nodes=3)


def test_plan_isolates_optimization_goals(gen):
    plan = service_plan_of(gen, "Mixed")
    routes = plan.routes
    # Fast (latency) and Bulk (throughput/large/over-threshold) must not
    # share a channel: that is the optimization-isolation property.
    assert routes["Fast"].channel != routes["Bulk"].channel
    fast_ch = plan.channel_for("Fast")
    bulk_ch = plan.channel_for("Bulk")
    assert fast_ch.protocol == "direct_writeimm"
    assert fast_ch.server_poll is PollMode.BUSY
    assert bulk_ch.protocol == "rfp"
    assert bulk_ch.server_poll is PollMode.EVENT
    # Legacy rides the hybrid TCP transport.
    assert plan.channel_for("Legacy").transport == "tcp"
    # Unhinted functions share the default channel.
    assert routes["Risky"].channel == routes["Fire"].channel


def test_plan_buffer_sizing(gen):
    plan = service_plan_of(gen, "Mixed")
    assert plan.channel_for("Bulk").max_msg >= 128 * 1024
    # Fast shares its channel with the unhinted Risky/Fire, so the channel
    # keeps the conservative unhinted floor; a fully hinted service gets
    # exact sizing instead.
    from repro.idl import load_idl
    tight = load_idl("""
    service Tight {
        string Fast(1: string msg) [
            hint: perf_goal = latency, payload_size = 512;
        ]
    }
    """, "tight_gen")
    tight_plan = service_plan_of(tight, "Tight")
    assert tight_plan.channel_for("Fast").max_msg < 64 * 1024


def test_rfp_first_read_is_fixed_whatever_the_reply_hint(tb, monkeypatch):
    """A hint-derived RFP channel whose server side expects 64 B replies
    still fetches the header and RFP_FIRST_READ bytes in its first READ:
    no hint sizes the speculative READ."""
    mirror = load_idl("service Mirror {\n binary Echo(1: binary payload)\n}",
                      "rfp_first_read_gen")
    plan = build_service_plan("Mirror", {"service": {}, "functions": {
        "Echo": {"shared": {"perf_goal": "throughput", "concurrency": 32},
                 "client": {"payload_size": 64 * KiB},
                 "server": {"payload_size": 64}}}}, ["Echo"])
    assert plan.channel_for("Echo").protocol == "rfp"

    class Handler:
        def Echo(self, payload):
            return payload

    reads = []
    post_send = QP.post_send

    def record(qp, wr, **kw):
        if wr.opcode is Opcode.RDMA_READ:
            reads.append(wr.sge.length)
        return (yield from post_send(qp, wr, **kw))

    monkeypatch.setattr(QP, "post_send", record)
    HatRpcServer(tb.node(1), mirror, "Mirror", Handler(), plan=plan).start()

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), mirror,
                                         "Mirror", plan=plan)
        return (yield from stub.Echo(b"x" * 64))

    assert tb.sim.run(tb.sim.process(client())) == b"x" * 64
    assert reads and set(reads) == {HDR_BYTES + RFP_FIRST_READ}


def test_end_to_end_all_functions(tb, gen):
    handler = MixedHandler()
    HatRpcServer(tb.node(1), gen, "Mixed", handler).start()
    out = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), gen, "Mixed")
        out["fast"] = yield from stub.Fast("hello")
        out["bulk"] = yield from stub.Bulk(bytes(range(256)) * 16)
        out["risky"] = yield from stub.Risky(21)
        yield from stub.Fire(777)
        out["legacy"] = yield from stub.Legacy("x")

    p = tb.sim.process(client())
    tb.sim.run(p)
    tb.sim.run()
    assert out["fast"] == "HELLO"
    assert out["bulk"] == (bytes(range(256)) * 16)[::-1]
    assert out["risky"] == 42
    assert out["legacy"] == "legacy:x"
    assert handler.fired == [777]


def test_declared_exception_travels_the_wire(tb):
    idl = """
    exception Boom { 1: string why }
    service S {
        i32 explode(1: i32 x) throws (1: Boom kaboom),
    }
    """
    gen = load_idl(idl, "boom_gen")

    class H:
        def explode(self, x):
            raise gen.Boom(why=f"x={x}")

    HatRpcServer(tb.node(1), gen, "S", H()).start()
    caught = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), gen, "S")
        try:
            yield from stub.explode(13)
        except gen.Boom as e:
            caught["why"] = e.why

    tb.sim.run(tb.sim.process(client()))
    assert caught["why"] == "x=13"


def test_unexpected_exception_maps_to_application_exception(tb, gen):
    from repro.thrift import TApplicationException
    HatRpcServer(tb.node(1), gen, "Mixed", MixedHandler()).start()
    caught = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), gen, "Mixed")
        try:
            yield from stub.Risky(-1)
        except TApplicationException as e:
            caught["type"] = e.type

    tb.sim.run(tb.sim.process(client()))
    assert caught["type"] == TApplicationException.INTERNAL_ERROR


def test_latency_channel_faster_than_ipoib_for_small_calls(tb, gen):
    """The headline effect: hinted RDMA beats the TCP/IPoIB channel."""
    HatRpcServer(tb.node(1), gen, "Mixed", MixedHandler()).start()
    t = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), gen, "Mixed")
        yield from stub.Fast("warm")
        yield from stub.Legacy("warm")
        t0 = tb.sim.now
        yield from stub.Fast("ping")
        t["rdma"] = tb.sim.now - t0
        t0 = tb.sim.now
        yield from stub.Legacy("ping")
        t["tcp"] = tb.sim.now - t0

    tb.sim.run(tb.sim.process(client()))
    assert t["rdma"] * 3 < t["tcp"]


def test_concurrency_override_changes_plan(gen):
    base = service_plan_of(gen, "Mixed")
    scaled = service_plan_of(gen, "Mixed", concurrency=256)
    # Risky had concurrency=4 (service hint) -> under-subscription busy;
    # the deployment override pushes it to event polling.
    assert base.channel_for("Risky").server_poll is PollMode.BUSY
    assert scaled.channel_for("Risky").server_poll is PollMode.EVENT


def test_plan_deterministic_between_peers(gen):
    a = service_plan_of(gen, "Mixed")
    b = service_plan_of(gen, "Mixed")
    assert a == b


def test_multiple_clients_share_server(tb, gen):
    server = HatRpcServer(tb.node(1), gen, "Mixed", MixedHandler()).start()
    results = []

    def client(i, node):
        stub = yield from hatrpc_connect(tb.node(node), tb.node(1), gen,
                                         "Mixed")
        r = yield from stub.Fast(f"c{i}")
        results.append(r == f"C{i}")

    for i in range(4):
        tb.sim.process(client(i, 0 if i % 2 else 2))
    tb.sim.run()
    assert len(results) == 4 and all(results)
    assert server.requests >= 4


# -- the frame header on the wire --------------------------------------------

@pytest.fixture
def wire(monkeypatch):
    """Every message the clients' RDMA channels send ("req") and get back
    ("resp"), in order."""
    log = []

    def tap(name):
        inner = getattr(RdmaChannel, name)

        def tapped(self, *args, **kw):
            if args:
                log.append(("req", args[0]))
            resp = yield from inner(self, *args, **kw)
            if resp is not None:
                log.append(("resp", resp))
            return resp

        monkeypatch.setattr(RdmaChannel, name, tapped)

    for name in ("call", "post", "recv"):
        tap(name)
    return log


def fast_call(gen, seqid):
    """The Thrift message a stub writes for ``Fast("hello")``."""
    buf = TMemoryBuffer()
    prot = TBinaryProtocol(buf)
    prot.write_message_begin("Fast", TMessageType.CALL, seqid)
    gen.Fast_args(msg="hello").write(prot)
    prot.write_message_end()
    return buf.getvalue()


def test_header_bytes_on_the_wire(tb, gen, wire):
    plan = plan_with_window(service_plan_of(gen, "Mixed"), 8)
    HatRpcServer(tb.node(1), gen, "Mixed", MixedHandler(), plan=plan).start()

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), gen,
                                         "Mixed", plan=plan)
        yield from stub.Fast("hello")
        handle = yield from stub._hatrpc.async_caller().call_async(
            "Fast", "hello")
        yield from handle.wait()
        tuned = yield from hatrpc_connect(tb.node(2), tb.node(1), gen,
                                          "Mixed", plan=plan,
                                          tuner=HintTuner())
        handle = yield from tuned._hatrpc.async_caller().call_async(
            "Fast", "hello")
        assert (yield from handle.wait()) == "HELLO"

    tb.sim.run(tb.sim.process(client()))
    assert [kind for kind, _ in wire] == ["req", "resp"] * 3
    (blocking, b_resp, windowed, w_resp, tuned, t_resp) = \
        [data for _, data in wire]

    # Blocking, untraced, untuned: exactly the Thrift message, both ways.
    assert blocking == fast_call(gen, seqid=1)
    assert frame.split(b_resp) == (frame.NONE, b_resp)
    assert b_resp[:2] == b"\x80\x01"

    # In a window: 8 bytes of header, and the reply mirrors it.
    assert windowed == frame.pack(seq=1) + fast_call(gen, seqid=2)
    assert len(windowed) - len(fast_call(gen, seqid=2)) == 8
    header, body = frame.split(w_resp)
    assert header == frame.Header(seq=1)
    assert len(w_resp) - len(body) == 8 and len(body) == len(b_resp)

    # Tuned as well: 12.
    assert tuned == frame.pack(seq=1, epoch=0) + fast_call(gen, seqid=1)
    assert len(tuned) - len(fast_call(gen, seqid=1)) == 12
    header, body = frame.split(t_resp)
    assert header == frame.Header(seq=1, epoch=0)
    assert len(t_resp) - len(body) == 12 and len(body) == len(b_resp)
