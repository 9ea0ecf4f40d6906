"""Direct SRQ unit tests: the shared slot pool behind the SRQ server path.

The end-to-end SRQ tests live in test_qp.py (shared delivery) and
tests/protocols (the SrqEagerServer); these pin the SRQ object's own
contract -- the invariants the server path builds on.
"""

import pytest

from repro.sim.units import us
from repro.verbs import (
    MemoryAccessError,
    Opcode,
    QPState,
    QPStateError,
    SendWR,
    Sge,
    WCStatus,
)
from repro.verbs.cq import PollMode
from repro.verbs.qp import connect_pair


def run(tb, gen):
    return tb.sim.run(tb.sim.process(gen))


def test_post_recv_on_srq_qp_raises_qp_state_error(tb, srq_pair):
    """A QP created over an SRQ must refuse per-QP recv postings -- the
    whole point is that the pool, not the QP, owns the receive slots."""
    srq_pair.server_ring(64)

    def post():
        yield from srq_pair.sqp.post_recv(0)

    p = tb.sim.process(post())
    with pytest.raises(QPStateError):
        tb.sim.run(p)


def test_take_on_empty_srq_returns_none(tb, srq_pair):
    """A SEND that finds the pool empty takes nothing: it RNR-retries until
    its budget is spent, and the pool is left empty and usable."""
    p = srq_pair
    p.server_ring(64)
    smr = p.cpd.reg_mr(64)
    assert len(p.srq) == 0

    def client():
        yield from p.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey)))
        wcs = yield from p.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert wcs[0].status is WCStatus.RNR_RETRY_EXC_ERR
    assert p.cqp.state is QPState.ERROR
    assert len(p.srq) == 0
    p.post_server(0)
    assert len(p.srq) == 1


def test_post_recv_validates_lkey(tb, srq_pair):
    """A post needs a bound ring, a slot inside it and the ring's MR still
    registered; a failed post enqueues nothing."""
    def post(slot):
        yield from srq_pair.srq.post_recv(slot)

    with pytest.raises(MemoryAccessError):      # no ring bound yet
        run(tb, post(0))
    mr = srq_pair.server_ring(64, slots=2)
    for slot in (-1, 2):
        with pytest.raises(MemoryAccessError, match="outside"):
            run(tb, post(slot))
    mr.deregister()
    with pytest.raises(MemoryAccessError, match="unknown lkey"):
        run(tb, post(0))
    assert len(srq_pair.srq) == 0  # nothing enqueued on any failure


def test_srq_drains_fifo_across_multiple_qps(tb, srq_pair):
    """WQEs come off the shared pool in posting order regardless of which
    QP consumes them -- the property that makes one pool serve N clients."""
    p = srq_pair
    # A second client QP on the same SRQ-backed server.
    c_scq2 = p.cdev.create_cq()
    c_rcq2 = p.cdev.create_cq()
    cqp2 = p.cdev.create_qp(p.cpd, c_scq2, c_rcq2)
    s_scq2 = p.sdev.create_cq()
    sqp2 = p.sdev.create_qp(p.spd, s_scq2, p.s_rcq, srq=p.srq)
    connect_pair(cqp2, sqp2)

    ring = p.server_ring(64, slots=4)
    p.post_server(0, 1, 2, 3)
    assert len(p.srq) == 4

    smr = p.cpd.reg_mr(64)

    def send_via(qp, scq, payload):
        smr.write(payload)
        yield from qp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 64, smr.lkey)))
        yield from scq.wait(PollMode.BUSY)

    # Alternate senders; each send fully completes before the next posts,
    # so arrival order (and thus WQE consumption order) is deterministic.
    run(tb, send_via(p.cqp, p.c_scq, b"A" * 64))
    run(tb, send_via(cqp2, c_scq2, b"B" * 64))
    run(tb, send_via(p.cqp, p.c_scq, b"C" * 64))
    run(tb, send_via(cqp2, c_scq2, b"D" * 64))

    assert len(p.srq) == 0
    wcs = p.s_rcq.poll(8)
    assert [w.wr_id for w in wcs] == [0, 1, 2, 3]  # FIFO pool order
    # Each WC names its consuming QP, and buffers were filled in pool order.
    assert [w.qp_num for w in wcs] == \
        [p.sqp.qp_num, sqp2.qp_num, p.sqp.qp_num, sqp2.qp_num]
    assert [ring.read(1, offset=64 * i) for i in range(4)] == \
        [b"A", b"B", b"C", b"D"]


def test_srq_exhaustion_rnr_recovers_after_repost(tb, srq_pair):
    """An empty pool behaves like RNR on a plain QP: the sender retries and
    lands once anyone reposts to the shared pool."""
    p = srq_pair
    smr = p.cpd.reg_mr(64)
    p.server_ring(64)

    def client():
        yield from p.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey)))
        wcs = yield from p.c_scq.wait(PollMode.BUSY)
        return wcs

    def late_repost():
        yield tb.sim.timeout(30 * us)
        yield from p.srq.post_recv(0)

    tb.sim.process(late_repost())
    wcs = run(tb, client())
    assert wcs[0].ok


def test_post_recv_list_validates_every_lkey_first(tb, srq_pair):
    """A slot list with one slot outside the ring raises before any time
    passes and leaves the pool as it was; a good list lands in order."""
    srq_pair.server_ring(64, slots=4)

    def post(slots):
        yield from srq_pair.srq.post_recv(slots)

    t0 = tb.sim.now
    with pytest.raises(MemoryAccessError):
        run(tb, post([0, 1, 4, 2, 3]))
    assert tb.sim.now == t0 and len(srq_pair.srq) == 0
    run(tb, post([3, 1, 2, 0]))
    assert list(srq_pair.srq._queue) == [3, 1, 2, 0]
