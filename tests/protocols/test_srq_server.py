"""SrqEagerServer: one SRQ + one CQ + one dispatcher serving every client.

The stock ``eager_sendrecv`` client must work unchanged against it -- the
SRQ is a server-side resource decision, invisible on the wire.
"""

import pytest

from repro.protocols import ProtoConfig, SRQ_SERVERS, SrqEagerServer, get_protocol
from repro.protocols.base import HDR_BYTES, pack_ctrl
from repro.sim.units import KiB, ms, us
from repro.testbed import Testbed
from repro.verbs import Opcode, SendWR, Sge

SERVICE = 140


def echo(request: bytes) -> bytes:
    return request


@pytest.fixture
def tb():
    return Testbed(n_nodes=3)


def make_srq_server(tb, cfg=None, handler=echo, srq_slots=None, node=1):
    cfg = cfg or ProtoConfig()
    return SrqEagerServer(tb.node(node).nic, SERVICE, handler, cfg,
                          srq_slots=srq_slots).start()


def connect_stock_client(tb, node=0, cfg=None):
    client_cls, _ = get_protocol("eager_sendrecv")
    client = client_cls(tb.node(node).nic, cfg or ProtoConfig())
    yield from client.connect(tb.node(1), SERVICE)
    return client


def test_registry_maps_eager_to_srq_server():
    assert SRQ_SERVERS["eager_sendrecv"] is SrqEagerServer


def test_stock_eager_client_roundtrips(tb):
    server = make_srq_server(tb)

    def client():
        c = yield from connect_stock_client(tb)
        out = []
        for i in range(5):
            req = f"request-{i}".encode() * (i + 1)
            resp = yield from c.call(req)
            out.append(resp == req)
        return out

    assert all(tb.sim.run(tb.sim.process(client())))
    tb.sim.run()
    assert server.requests == 5
    assert server.connections == 1


def test_many_clients_share_one_pool_and_one_cq(tb):
    server = make_srq_server(tb)
    results = {}

    def client(i, node):
        c = yield from connect_stock_client(tb, node=node)
        req = f"payload-{i}".encode() * 20
        resp = yield from c.call(req)
        results[i] = resp == req

    procs = [tb.sim.process(client(i, i % 2 * 2))  # nodes 0 and 2
             for i in range(8)]
    for p in procs:
        tb.sim.run(p)
    tb.sim.run()
    assert results == {i: True for i in range(8)}
    assert server.connections == 8
    assert server.requests == 8
    # The receive path is genuinely shared: every accepted QP rides the
    # server's single SRQ and single recv CQ.
    assert all(conn.qp.srq is server.srq for conn in server._conns.values())
    assert all(conn.qp.recv_cq is server.rcq
               for conn in server._conns.values())
    assert server._ring.slots == server.srq_slots


def test_burst_beyond_srq_slots_absorbed_by_rnr(tb):
    """More concurrent arrivals than pool slots: the RC transport's RNR
    retry absorbs the overflow; nothing is lost."""
    server = make_srq_server(tb, srq_slots=2)
    results = []

    def client(i):
        c = yield from connect_stock_client(tb)
        resp = yield from c.call(b"x" * 64)
        results.append(resp == b"x" * 64)

    procs = [tb.sim.process(client(i)) for i in range(6)]
    for p in procs:
        tb.sim.run(p)
    assert results == [True] * 6
    assert server.requests == 6
    assert server._ring.slots == 2


def test_one_dead_connection_leaves_neighbors_serving(tb):
    server = make_srq_server(tb)

    def setup():
        a = yield from connect_stock_client(tb)
        b = yield from connect_stock_client(tb, node=2)
        resp = yield from a.call(b"warm")
        assert resp == b"warm"
        return a, b

    a, b = tb.sim.run(tb.sim.process(setup()))
    a.abort()                                 # hard-kill client A's QP

    def survivor():
        yield tb.sim.timeout(1 * ms)          # let the error WC surface
        return (yield from b.call(b"still-alive"))

    assert tb.sim.run(tb.sim.process(survivor())) == b"still-alive"
    tb.sim.run()
    assert server.teardowns == 1              # only A was dropped
    assert len(server._conns) == 1
    assert server.requests == 2


def test_corrupt_control_kind_drops_only_that_connection(tb):
    """A garbage control header condemns the connection it arrived on --
    as under a per-connection serve loop -- not the shared dispatcher: the
    simulation keeps running and a bystander keeps being served."""
    server = make_srq_server(tb)

    def setup():
        a = yield from connect_stock_client(tb)
        b = yield from connect_stock_client(tb, node=2)
        assert (yield from a.call(b"ok")) == b"ok"
        assert (yield from b.call(b"warm")) == b"warm"
        return a, b

    a, b = tb.sim.run(tb.sim.process(setup()))

    def corrupt():
        # SEND a bogus kind straight out of A's send slot -- emulating a
        # corrupted producer.
        slot = a.ep._send_slots[0]
        slot.write(pack_ctrl(0x7F, 99, 4) + b"zzzz")
        yield from a.qp.post_send(SendWR(
            Opcode.SEND, Sge(slot.addr, HDR_BYTES + 4, slot.lkey),
            signaled=False))
        yield tb.sim.timeout(50 * us)

    tb.sim.process(corrupt())
    tb.sim.run()                              # the dispatcher survives it
    assert server.teardowns == 1              # only A was dropped
    assert list(server._conns) == [b.qp.peer.qp_num]
    assert len(server.srq) == server.srq_slots    # the slot went back

    def after():
        c = yield from connect_stock_client(tb)
        return ((yield from b.call(b"bystander")),
                (yield from c.call(b"fresh")))

    assert tb.sim.run(tb.sim.process(after())) == (b"bystander", b"fresh")
    assert server.requests == 4


def test_slow_handler_does_not_block_the_receive_path(tb):
    """Per-request workers: a stalled handler on one connection must not
    head-of-line-block another connection's request."""
    sim_holder = {}

    def handler(request: bytes):
        if request.startswith(b"slow"):
            yield sim_holder["sim"].timeout(5 * ms)
        return request

    server = make_srq_server(tb, handler=handler)
    sim_holder["sim"] = tb.sim
    order = []

    def slow_client():
        c = yield from connect_stock_client(tb)
        yield from c.call(b"slow" + b"x" * 60)
        order.append("slow")

    def fast_client():
        c = yield from connect_stock_client(tb, node=2)
        yield from c.call(b"fast")
        order.append("fast")

    ps = tb.sim.process(slow_client())
    pf = tb.sim.process(fast_client())
    tb.sim.run(ps)
    tb.sim.run(pf)
    assert order == ["fast", "slow"]          # fast overtook the stall


def test_oversize_response_raises_protocol_error(tb):
    from repro.protocols import ProtocolError
    cfg = ProtoConfig(max_msg=1 * KiB)
    make_srq_server(tb, cfg=cfg, handler=lambda r: b"y" * 4096)

    def client():
        c = yield from connect_stock_client(tb, cfg=cfg)
        # Local misuse stays loud: the worker process dies with the typed
        # error server-side instead of reading as a dead peer.
        yield from c.call(b"q")

    tb.sim.process(client())
    with pytest.raises(ProtocolError, match="exceeds max_msg"):
        tb.sim.run()
