"""Failure injection at the protocol layer.

The RPC protocols must fail loudly and locally -- a broken connection or a
misbehaving peer surfaces as an exception on the affected call, never as a
hang or silent corruption, and never damages other connections.
"""

import pytest

from repro.protocols import (SRQ_SERVERS, ProtoConfig, ProtocolError,
                             directwrite, get_protocol, protocol_names,
                             serverbypass, twosided)
from repro.protocols.base import (HDR_BYTES, K_EAGER, K_NOTIFY, K_RTS,
                                  pack_ctrl)
from repro.protocols.serverbypass import BypassServerEnd, HerdServerEnd
from repro.sim.units import KiB, us
from repro.testbed import Testbed
from repro.verbs import Opcode, QPState, SendWR, Sge, WCStatus
from repro.verbs.errors import CQOverflowError, QPStateError, WCError

from tests.protocols.conftest import make_pair


@pytest.fixture
def tb():
    return Testbed(n_nodes=3)


@pytest.mark.parametrize("proto", ["direct_writeimm", "eager_sendrecv",
                                   "rfp"])
def test_qp_error_fails_inflight_call(tb, proto):
    """Forcing the QP to ERROR mid-call raises at the caller."""
    server, connect = make_pair(tb, proto)
    outcome = {}

    def client():
        c = yield from connect()
        yield from c.call(b"warm")
        # Sabotage the connection, then call again.
        c.qp.to_error()
        try:
            yield from c.call(b"after-error")
        except Exception as e:
            outcome["err"] = type(e).__name__

    tb.sim.run(tb.sim.process(client()))
    tb.sim.run()
    assert "err" in outcome


def test_concurrent_connections_survive_one_failure(tb):
    """Optimization isolation extends to faults: killing one client's QP
    must not disturb its neighbors."""
    server, connect = make_pair(tb, "direct_writeimm")
    results = {"ok": 0, "failed": 0}

    def victim():
        c = yield from connect()
        yield from c.call(b"v")
        c.qp.to_error()
        try:
            yield from c.call(b"boom")
        except Exception:
            results["failed"] += 1

    def bystander(i):
        from repro.protocols import get_protocol
        cls, _ = get_protocol("direct_writeimm")
        c = cls(tb.node(2).nic, ProtoConfig())
        yield from c.connect(tb.node(1), 100)
        for _ in range(5):
            resp = yield from c.call(b"fine")
            assert resp == b"fine"
        results["ok"] += 1

    tb.sim.process(victim())
    for i in range(3):
        tb.sim.process(bystander(i))
    tb.sim.run()
    assert results == {"ok": 3, "failed": 1}


def test_reentrant_call_rejected(tb):
    server, connect = make_pair(tb, "direct_writeimm")

    def client():
        c = yield from connect()
        gen = c.call(b"outer")
        ev = next(gen)  # start the outer call, leave it outstanding
        with pytest.raises(ProtocolError, match="outstanding"):
            inner = c.call(b"inner")
            next(inner)
        return True

    p = tb.sim.process(client())
    tb.sim.run()
    assert p.ok or isinstance(p._exc, StopIteration)


def test_corrupt_control_kind_detected(tb):
    """A garbage control header must raise ProtocolError, not misparse."""
    server, connect = make_pair(tb, "direct_writeimm")
    outcome = {}

    def client():
        c = yield from connect()
        yield from c.call(b"ok")
        # Write a bogus kind directly into the peer-advertised buffer and
        # notify -- emulating a corrupted producer.
        ep = c.ep
        ep._staging.write(pack_ctrl(0x7F, 99, 4) + b"zzzz")
        yield from c.qp.post_send(SendWR(
            Opcode.RDMA_WRITE_WITH_IMM,
            Sge(ep._staging.addr, HDR_BYTES + 4, ep._staging.lkey),
            remote_addr=ep.peer_addr, rkey=ep.peer_rkey, imm=99,
            signaled=False))
        yield tb.sim.timeout(50 * us)

    tb.sim.process(client())
    tb.sim.run()
    # The server's serve loop died on the corrupt frame; the server object
    # stays alive and accepts new connections.
    def second_client():
        cls, _ = get_protocol("direct_writeimm")
        c = cls(tb.node(0).nic, ProtoConfig())
        yield from c.connect(tb.node(1), 100)
        return (yield from c.call(b"fresh"))

    p = tb.sim.process(second_client())
    assert tb.sim.run(p) == b"fresh"


def test_cq_overflow_guard(tb):
    """A CQ sized too small overflows loudly instead of dropping CQEs."""
    dev = tb.node(0).nic
    pd = dev.alloc_pd()
    scq = dev.create_cq(capacity=2)
    rcq = dev.create_cq()
    qp = dev.create_qp(pd, scq, rcq)
    rdev = tb.node(1).nic
    rpd = rdev.alloc_pd()
    rqp = rdev.create_qp(rpd, rdev.create_cq(), rdev.create_cq())
    from repro.verbs.qp import connect_pair
    connect_pair(qp, rqp)
    mr = pd.reg_mr(64)
    rmr = rpd.reg_mr(64)

    def flood():
        for _ in range(4):  # 4 signaled sends into a 2-slot CQ
            yield from qp.post_send(SendWR(
                Opcode.RDMA_WRITE, Sge(mr.addr, 8, mr.lkey),
                remote_addr=rmr.addr, rkey=rmr.rkey, signaled=True))
        yield tb.sim.timeout(100 * us)

    tb.sim.process(flood())
    with pytest.raises(CQOverflowError):
        tb.sim.run()


def test_eager_ring_exhaustion_rnr_recovers(tb):
    """Overrunning the pre-posted ring triggers RNR retries, not loss."""
    cfg = ProtoConfig(ring_slots=2)
    server, connect = make_pair(tb, "eager_sendrecv", cfg)

    def client():
        c = yield from connect()
        out = []
        for i in range(8):
            resp = yield from c.call(f"m{i}".encode())
            out.append(resp == f"m{i}".encode())
        return out

    p = tb.sim.process(client())
    assert all(tb.sim.run(p))


ALL = protocol_names()
#: (protocol, srq server?, window): every name at window 1, the
#: pipelining-capable ones at window 4 too, and the SRQ server at both.
OVERSIZE_CELLS = (
    [(p, False, 1) for p in ALL]
    + [(p, False, 4) for p in ALL if get_protocol(p)[0].supports_pipelining]
    + [(p, True, w) for p in SRQ_SERVERS for w in (1, 4)])


@pytest.mark.parametrize("proto,srq,window", OVERSIZE_CELLS)
def test_forged_request_length_closes_only_its_connection(monkeypatch, proto,
                                                          srq, window):
    """A request whose control header claims ``max_msg + 512`` bytes --
    more than any slot or buffer holds -- is refused before the length is
    used: that connection is torn down (counted in ``teardowns``), its
    client sees a channel error, and a fresh connection is served.  Before,
    the server read past its buffer: ``MemoryAccessError`` ended the run
    (rfp, farm, direct-write at window 1), or a pipelined slot's neighbour
    was handed to the handler as the request."""
    cfg = ProtoConfig(max_msg=4 * KiB, window=window)
    forging = []

    def forged(kind, seq, length, addr=0, rkey=0):
        if forging and kind in (K_EAGER, K_NOTIFY, K_RTS):
            length = cfg.max_msg + 512
        return pack_ctrl(kind, seq, length, addr, rkey)

    for module in (directwrite, serverbypass, twosided):
        monkeypatch.setattr(module, "pack_ctrl", forged)
    tb = Testbed(n_nodes=3)
    server, connect = make_pair(tb, proto, cfg, srq=srq)

    def bad_client():
        c = yield from connect()
        assert (yield from c.call(b"warm")) == b"warm"
        forging.append(True)
        try:
            yield from c.call(b"forged")
        except (WCError, QPStateError) as exc:
            return type(exc)
        finally:
            forging.clear()

    def fresh_client():
        cls, _ = get_protocol(proto)
        c = cls(tb.node(2).nic, cfg)
        yield from c.connect(tb.node(1), 100)
        return (yield from c.call(b"fresh"))

    assert tb.sim.run(tb.sim.process(bad_client())) in (WCError, QPStateError)
    assert tb.sim.run(tb.sim.process(fresh_client())) == b"fresh"
    tb.sim.run()
    assert server.teardowns == 1
    assert server.requests == 2         # the warm-up and the fresh call


@pytest.mark.parametrize("proto", ["pilaf", "farm", "rfp"])
def test_forged_reply_length_is_refused_by_the_client(monkeypatch, proto):
    """The bypass client takes the reply length from the header the server
    published; one that does not fit ``max_msg`` raises ``ProtocolError``
    (a channel error) instead of READing past the fetch buffer."""
    cfg = ProtoConfig(max_msg=4 * KiB)
    publish = BypassServerEnd.send_msg

    def lying(self, resp):
        yield from publish(self, resp)
        self.respbuf.write(pack_ctrl(K_NOTIFY, self._last_seq,
                                     cfg.max_msg + 512))

    monkeypatch.setattr(BypassServerEnd, "send_msg", lying)
    tb = Testbed(n_nodes=3)
    server, connect = make_pair(tb, proto, cfg)

    def client():
        c = yield from connect()
        with pytest.raises(ProtocolError, match="4608"):
            yield from c.call(b"x" * 100)
        return True

    assert tb.sim.run(tb.sim.process(client()))


@pytest.mark.parametrize("forge,claim", [
    ("total", "4608 bytes where 4096 fit"),     # total over max_msg
    ("offset", "4196 bytes where 100 fit"),     # chunk past the total
], ids=["total", "offset"])
def test_forged_herd_reply_chunk_is_refused_by_the_client(monkeypatch, forge,
                                                          claim):
    """HERD SENDs the reply back in chunks whose header carries the reply's
    total length and the chunk's offset in it.  A total that does not fit
    ``max_msg``, or a chunk that does not fit inside the total, raises
    ``ProtocolError`` at the client instead of being assembled."""
    cfg = ProtoConfig(max_msg=4 * KiB)
    forging = []

    def forged(kind, seq, length, addr=0, rkey=0):
        if forging:
            if forge == "total":
                length = cfg.max_msg + 512
            else:
                addr = cfg.max_msg
        return pack_ctrl(kind, seq, length, addr, rkey)

    publish = HerdServerEnd.send_msg

    def lying(self, resp):
        forging.append(True)
        try:
            yield from publish(self, resp)
        finally:
            forging.clear()

    monkeypatch.setattr(serverbypass, "pack_ctrl", forged)
    monkeypatch.setattr(HerdServerEnd, "send_msg", lying)
    tb = Testbed(n_nodes=3)
    server, connect = make_pair(tb, "herd", cfg)

    def client():
        c = yield from connect()
        with pytest.raises(ProtocolError, match=claim):
            yield from c.call(b"x" * 100)
        return True

    assert tb.sim.run(tb.sim.process(client()))


def test_oversize_response_detected():
    """A handler returning more than max_msg fails the server loop visibly
    rather than silently truncating -- or, on a pipelined window whose
    slots share one MR, silently spilling 64 bytes over the next slot's
    header and delivering the reply as a success.  (One test over all the
    cells, so its id stays what it was when it covered one.)"""
    def big_handler(req):
        return b"x" * (4 * KiB + 64)

    for proto, srq, window in OVERSIZE_CELLS:
        tb = Testbed(n_nodes=3)
        cfg = ProtoConfig(max_msg=4 * KiB, window=window)
        server, connect = make_pair(tb, proto, cfg, handler=big_handler,
                                    srq=srq)

        def client():
            c = yield from connect()
            yield from c.call(b"gimme")

        p = tb.sim.process(client())
        p.defuse()  # the client hangs or fails; either way the call never lands
        # the server-side failure surfaces at the event loop, typed, naming
        # both sizes
        with pytest.raises(
                ProtocolError,
                match="response of 4160 bytes exceeds max_msg 4096"):
            tb.sim.run()
            pytest.fail(f"{proto} srq={srq} window={window}: oversize "
                        f"reply not refused")
        assert not (p.triggered and p.ok), (proto, srq, window)
