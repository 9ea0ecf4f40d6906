"""No host reference to an RPC message outlives its last reader.

A 64 KiB Echo runs through the whole stack -- generated stub, engine,
protocol endpoints, Thrift server -- over every registry row, under busy
and event polling, through the blocking path and through the pipelined one
(``call_async``; a row that cannot pipeline runs it as its solo window).
Every message object that crosses an endpoint (the request the client
sends and the server reads, the reply the server sends and the client
reads) and the payload the handler sees are recorded per call.  Then, by
walking ``gc`` referents from the bed and comparing with ``is``:

* once call k has returned, nothing reachable is one of its objects --
  except, on the server-bypass rows, the reply published in the server's
  ``respbuf``, which the client READs whenever it likes;
* once call k+1 has returned, nothing reachable is one of call k's objects
  at all: the published reply went when request k+1 was read.

Two more cells look in the middle of a call: the server lets go of the
request once its handler has taken it, and the NIC lets go of a message
once it is written at the peer, before the WRITE's ACK is back.
"""

import gc
import sys
from functools import partialmethod
from types import ModuleType

import pytest

from repro.core.engine import pinned_plan, plan_with_window
from repro.core.resilience import RetryPolicy
from repro.core.runtime import HatRpcClient, HatRpcServer
from repro.idl import load_idl
from repro.protocols import ProtoConfig, get_protocol, protocol_names
from repro.protocols.serverbypass import BypassServerEnd
from repro.sim.core import Process
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.verbs.cq import PollMode
from repro.verbs.memory import Memory, _Segment
from repro.verbs.qp import QP, _Chain
from repro.verbs.types import Opcode

from tests.protocols.conftest import make_pair

SIZE = 64 * KiB
#: a quarter-size Echo after a full one: the server's respbuf keeps a
#: slice of the longer reply behind a shorter one until it is released
SIZES = (SIZE, SIZE // 4, SIZE)

ROWS = protocol_names()
CELLS = [(p, mode, how) for p in ROWS for mode in ("busy", "event")
         for how in ("blocking", "pipelined")]

#: the endpoint classes of every row, whose message methods are recorded
ENDPOINTS = sorted({cls for p in ROWS for cls in (
    get_protocol(p)[0].row.client_end, get_protocol(p)[0].row.server_end)},
    key=lambda c: c.__name__)


@pytest.fixture(scope="module")
def gen():
    return load_idl("service Mirror {\n binary Echo(1: binary payload)\n}",
                    "lifetimes_mirror_gen")


@pytest.fixture
def recorded(monkeypatch):
    """Every object an endpoint's ``send_msg`` takes or ``recv_msg``
    returns, appended to the list this fixture yields."""
    seen = []

    def send_msg(self, _send, data):
        seen.append(data)
        return (yield from _send(self, data))

    def recv_msg(self, _recv):
        data = yield from _recv(self)
        seen.append(data)
        return data

    # Each class where it defines the method, so an inherited one is
    # recorded once.
    for cls in ENDPOINTS:
        for name, wrap in (("send_msg", send_msg), ("recv_msg", recv_msg)):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, partialmethod(
                    wrap, vars(cls)[name]))
    return seen


def reachable(roots, skip):
    """Ids of every object reachable from ``roots`` by ``gc`` referents,
    not entering types, modules, module globals or the ``skip`` ids."""
    barrier = set(skip)
    barrier.update(id(m.__dict__) for m in list(sys.modules.values())
                   if isinstance(m, ModuleType))
    found = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        key = id(obj)
        if key in found or key in barrier:
            continue
        found.add(key)
        if not isinstance(obj, (type, ModuleType)):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("proto,mode,how", CELLS)
def test_no_message_outlives_its_call(gen, recorded, proto, mode, how):
    pipelined = how == "pipelined"
    window = 4 if pipelined and get_protocol(proto)[0].supports_pipelining \
        else 1
    plan = plan_with_window(pinned_plan("Mirror", ["Echo"], proto,
                                        PollMode[mode.upper()],
                                        max_msg=2 * SIZE), window)
    tb = Testbed(n_nodes=2)
    sim = tb.sim
    payloads = []

    class Handler:
        def Echo(self, payload):
            payloads.append(payload)
            if not payload:             # the call that is never answered
                yield sim.event()
            return payload

    server = HatRpcServer(tb.node(0), gen, "Mirror", Handler(),
                          plan=plan).start()
    client = HatRpcClient(tb.node(1), gen, "Mirror", plan=plan,
                          retry_policy=RetryPolicy(max_attempts=1))
    stub = sim.run(sim.process(client.connect(tb.node(0))))
    roots = (tb, server, client, stub)
    # The records are reachable through the recording functions' closures.
    records = {id(recorded), id(payloads)}

    def echo(payload, last):
        if not pipelined:
            return (yield from stub.Echo(payload))
        caller = client.async_caller()
        handle = yield from caller.call_async("Echo", payload)
        if last and window > 1:
            # An empty Echo stays in flight behind it, so the pipeline's
            # receiver is parked, not gone, when the bed is idle.  (A solo
            # window has no receiver, and a server-bypass client would
            # poll for the missing reply for ever.)
            yield from caller.call_async("Echo", b"")
        return (yield from handle.wait())

    calls = []      # per call: its messages and payload, as recorded
    for k, size in enumerate(SIZES):
        payload = bytes([k + 1]) * size
        start = len(recorded), len(payloads)
        assert sim.run(sim.process(
            echo(payload, k == len(SIZES) - 1))) == payload
        sim.run()                       # every NIC op and server step done
        calls.append([o for o in recorded[start[0]:] + payloads[start[1]:]
                      if len(o) >= size])
        assert len(calls[k]) == 5       # 2 requests, 2 replies, a payload
        # The published reply is held while its call is the connection's
        # last: no walk enters a server-bypass respbuf here.
        respbufs = {id(ep.respbuf._seg) for ep in gc.get_objects()
                    if isinstance(ep, BypassServerEnd)}
        held = reachable(roots, records | respbufs)
        assert [len(o) for o in calls[k] if id(o) in held] == [], \
            f"call {k}'s messages held after it returned"
        if k:
            held = reachable(roots, records)
            assert [len(o) for o in calls[k - 1] if id(o) in held] == [], \
                f"call {k - 1}'s messages held after call {k} returned"


#: rows whose server is still sending call k's reply when the walk runs:
#: HERD between its chunk SENDs, read_rndv waiting for the FIN, the SRQ
#: server's eager SEND
MID_REPLY = [("herd", False), ("read_rndv", False), ("eager_sendrecv", True)]


@pytest.mark.parametrize("proto,srq", MID_REPLY,
                         ids=[f"{p}{'-srq' if srq else ''}"
                              for p, srq in MID_REPLY])
def test_server_lets_go_of_the_request_while_it_replies(monkeypatch, proto,
                                                        srq):
    tb = Testbed(n_nodes=2)
    sim = tb.sim
    server_dev = tb.node(1).nic
    taken = []
    replying = []
    mid_reply = sim.event()

    def handler(request):
        taken.append(request)
        return bytes(SIZE)

    server_end = get_protocol(proto)[0].row.server_end
    send_msg = server_end.send_msg
    post_send = QP.post_send

    def reply(ep, data):
        if ep.device is server_dev:
            replying.append(ep.qp)
        return (yield from send_msg(ep, data))

    def post(qp, wr, **kw):
        # The reply's first post: the server is inside send_msg until the
        # event this sets is processed.
        if replying and qp is replying[0] and not mid_reply.triggered:
            mid_reply.succeed()
        return (yield from post_send(qp, wr, **kw))

    monkeypatch.setattr(server_end, "send_msg", reply)
    monkeypatch.setattr(QP, "post_send", post)
    server, connect = make_pair(tb, proto, ProtoConfig(max_msg=2 * SIZE),
                                handler=handler, srq=srq)

    def client():
        c = yield from connect()
        # Sent through the endpoint, so no frame here keeps the request.
        yield from c.ep.send_msg(bytes([1]) * SIZE)
        return (yield from c.ep.recv_msg())

    call = sim.process(client())
    sim.run(mid_reply)
    assert not call.triggered
    (request,) = taken
    assert id(request) not in reachable((tb, server), {id(taken)}), \
        "the server holds the request while its reply goes out"
    assert sim.run(call) == bytes(SIZE)


def test_nic_lets_go_of_a_written_message_before_its_ack(monkeypatch):
    """While the ACK of a 64 KiB write_rndv WRITE is on its way back, the
    message is in the peer's registered memory and nowhere else the
    simulator's heap reaches (processes aside: they read it legitimately)."""
    tb = Testbed(n_nodes=2)
    sim = tb.sim
    acking = sim.event()
    ack = _Chain._ack

    def watch(chain, k):
        wr = chain.wrs[k]
        if wr.opcode is Opcode.RDMA_WRITE_WITH_IMM \
                and wr.sge.length == SIZE and not acking.triggered:
            acking.succeed()
        ack(chain, k)

    monkeypatch.setattr(_Chain, "_ack", watch)
    _, connect = make_pair(tb, "write_rndv", ProtoConfig(max_msg=2 * SIZE))
    message = bytes([1]) * SIZE

    def client():
        c = yield from connect()
        return (yield from c.call(message))

    call = sim.process(client())
    sim.run(acking)
    assert not call.triggered
    barrier = {id(o) for o in gc.get_objects()
               if isinstance(o, (Process, Memory, _Segment))}
    held = reachable([event for _t, _eid, event in sim._heap], barrier)
    assert id(message) not in held, "the WRITE's chain holds the message"
    assert sim.run(call) == message
