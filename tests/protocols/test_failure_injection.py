"""Failure injection at the protocol layer.

The RPC protocols must fail loudly and locally -- a broken connection or a
misbehaving peer surfaces as an exception on the affected call, never as a
hang or silent corruption, and never damages other connections.
"""

import pytest

from repro.protocols import (SRQ_SERVERS, ProtoConfig, ProtocolError,
                             get_protocol, protocol_names)
from repro.protocols.base import HDR_BYTES, pack_ctrl
from repro.sim.units import KiB, us
from repro.testbed import Testbed
from repro.verbs import Opcode, QPState, SendWR, Sge, WCStatus
from repro.verbs.errors import CQOverflowError

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
        yield from c.call(b"warm", resp_hint=64)
        # Sabotage the connection, then call again.
        c.qp.to_error()
        try:
            yield from c.call(b"after-error", resp_hint=64)
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
        yield from c.call(b"v", resp_hint=64)
        c.qp.to_error()
        try:
            yield from c.call(b"boom", resp_hint=64)
        except Exception:
            results["failed"] += 1

    def bystander(i):
        from repro.protocols import get_protocol
        cls, _ = get_protocol("direct_writeimm")
        c = cls(tb.node(2).nic, ProtoConfig())
        yield from c.connect(tb.node(1), 100)
        for _ in range(5):
            resp = yield from c.call(b"fine", resp_hint=64)
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
        yield from c.call(b"ok", resp_hint=64)
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
        return (yield from c.call(b"fresh", resp_hint=64))

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
            resp = yield from c.call(f"m{i}".encode(), resp_hint=64)
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
            yield from c.call(b"gimme", resp_hint=64)

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
