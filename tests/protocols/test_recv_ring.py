"""The receive ring and the control header every protocol shares.

A ring builds one ``RecvWR`` per slot at registration and re-posts that
same object; ``pack_ctrl`` is one padded struct whose bytes are the
unpadded header zero-filled to ``HDR_BYTES``.
"""

from repro.protocols.base import CTRL, HDR_BYTES, RecvRing, pack_ctrl, \
    unpack_ctrl
from repro.verbs import RecvWR, Sge
from repro.verbs.qp import connect_pair
from repro.verbs.types import WCStatus


class Recorder:
    """A receive queue that remembers every WR posted through it."""

    def __init__(self, qp):
        self.qp = qp
        self.posted = []

    def post_recv(self, rwr, before=()):
        """One WR, or a WR list (remembered WR by WR)."""
        if isinstance(rwr, list):
            self.posted.extend(rwr)
        else:
            self.posted.append(rwr)
        yield from self.qp.post_recv(rwr, before)


def ring_on_qp(tb, slots=4, slot_bytes=64):
    nic = tb.node(0).nic
    pd = nic.alloc_pd()
    qp = nic.create_qp(pd, nic.create_cq(), nic.create_cq())
    peer = tb.node(1).nic
    ppd = peer.alloc_pd()
    connect_pair(qp, peer.create_qp(ppd, peer.create_cq(), peer.create_cq()))
    rq = Recorder(qp)
    return qp, rq, RecvRing(pd, rq, slots, slot_bytes)


def test_post_reposts_the_same_work_request(tb):
    qp, rq, ring = ring_on_qp(tb)
    mr = ring.mr
    tb.sim.run(tb.sim.process(ring.post_all()))
    first = list(rq.posted)
    assert first == [RecvWR(Sge(mr.addr + i * 64, 64, mr.lkey), wr_id=i)
                     for i in range(4)]
    for _ in range(4):                  # the NIC consumes every slot
        qp._take_recv()

    def repost():
        for i in (2, 0, 3, 1):
            yield from ring.post(i)
        qp._take_recv()                 # slot 2 completes again ...
        yield from ring.post(2)         # ... and is re-posted
    tb.sim.run(tb.sim.process(repost()))
    assert [w.wr_id for w in rq.posted[4:]] == [2, 0, 3, 1, 2]
    for w in rq.posted[4:]:
        assert w is first[w.wr_id]
    assert w.sge == Sge(mr.addr + 2 * 64, 64, mr.lkey)


def test_flush_returns_every_posted_wr_id(tb):
    qp, _rq, ring = ring_on_qp(tb, slots=6)

    def post_twice():
        yield from ring.post_all()
        for _ in range(3):              # slots 0..2 complete ...
            qp._take_recv()
        for i in (1, 0, 2):             # ... and are re-posted
            yield from ring.post(i)
    tb.sim.run(tb.sim.process(post_twice()))
    qp.to_error()
    wcs = qp.recv_cq.poll(max_wc=64)
    assert sorted(wc.wr_id for wc in wcs) == list(range(6))
    assert [wc.wr_id for wc in wcs] == [3, 4, 5, 1, 0, 2]
    assert all(wc.status is WCStatus.WR_FLUSH_ERR for wc in wcs)


def test_pack_ctrl_is_the_zero_padded_header():
    u32, u64 = 2**32 - 1, 2**64 - 1
    cases = [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (255, u32, u32, u64, u32),
             (5, 2**31, 2**31 - 1, 2**63, 2**31), (0x7F, 99, 4, 0, 0)]
    for kind, seq, length, addr, rkey in cases:
        got = pack_ctrl(kind, seq, length, addr, rkey)
        assert got == CTRL.pack(kind, seq, length, addr, rkey).ljust(
            HDR_BYTES, b"\0")
        assert len(got) == HDR_BYTES
        assert unpack_ctrl(got) == (kind, seq, length, addr, rkey)
    assert pack_ctrl(3, 7, 9) == CTRL.pack(3, 7, 9, 0, 0).ljust(
        HDR_BYTES, b"\0")
