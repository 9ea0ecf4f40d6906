"""The receive ring and the control header every protocol shares.

A ring binds its queue to its MR at registration and posts slot numbers,
nothing else: a connection's footprint does not grow with its ring depth.
``pack_ctrl`` is one padded struct whose bytes are the unpadded header
zero-filled to ``HDR_BYTES``.
"""

import gc

from repro.protocols import ProtoConfig
from repro.protocols.base import CTRL, HDR_BYTES, RecvRing, pack_ctrl, \
    unpack_ctrl
from repro.testbed import Testbed
from repro.verbs.qp import connect_pair
from repro.verbs.types import WCStatus

from tests.protocols.conftest import make_pair


class Recorder:
    """A receive queue that remembers every slot posted through it."""

    def __init__(self, qp):
        self.qp = qp
        self.posted = []

    def bind_recv(self, mr, slots, slot_bytes):
        self.qp.bind_recv(mr, slots, slot_bytes)

    def post_recv(self, slot, before=()):
        """One slot, or a slot list (remembered slot by slot)."""
        if isinstance(slot, list):
            self.posted.extend(slot)
        else:
            self.posted.append(slot)
        yield from self.qp.post_recv(slot, before)


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
    assert (qp.base, qp.slots, qp.slot_bytes, qp.lkey) == (
        mr.addr, 4, 64, mr.lkey)
    tb.sim.run(tb.sim.process(ring.post_all()))
    assert rq.posted == [0, 1, 2, 3]
    for _ in range(4):                  # the NIC consumes every slot
        qp._queue.popleft()

    def repost():
        for i in (2, 0, 3, 1):
            yield from ring.post(i)
        qp._queue.popleft()             # slot 2 completes again ...
        yield from ring.post(2)         # ... and is re-posted
    tb.sim.run(tb.sim.process(repost()))
    assert rq.posted[4:] == [2, 0, 3, 1, 2]
    assert list(qp._queue) == [0, 3, 1, 2]


def test_flush_returns_every_posted_wr_id(tb):
    qp, _rq, ring = ring_on_qp(tb, slots=6)

    def post_twice():
        yield from ring.post_all()
        for _ in range(3):              # slots 0..2 complete ...
            qp._queue.popleft()
        for i in (1, 0, 2):             # ... and are re-posted
            yield from ring.post(i)
    tb.sim.run(tb.sim.process(post_twice()))
    qp.to_error()
    wcs = qp.recv_cq.poll(max_wc=64)
    assert sorted(wc.wr_id for wc in wcs) == list(range(6))
    assert [wc.wr_id for wc in wcs] == [3, 4, 5, 1, 0, 2]
    assert all(wc.status is WCStatus.WR_FLUSH_ERR for wc in wcs)


def _connect_footprint(ring_slots):
    """GC-tracked objects a connected ``direct_writeimm`` pair (both ends
    pre-posted) holds beyond an idle testbed."""
    tb = Testbed(n_nodes=2)
    gc.collect()
    before = len(gc.get_objects())
    _server, connect = make_pair(tb, "direct_writeimm",
                                 ProtoConfig(ring_slots=ring_slots),
                                 server_node=1, client_node=0)
    client = tb.sim.run(tb.sim.process(connect()))
    tb.sim.run()
    assert client.qp.recv_depth == ring_slots
    gc.collect()
    return len(gc.get_objects()) - before


def test_connect_footprint_does_not_grow_with_ring_depth():
    """A pre-posted slot costs the host a slot number, not an object."""
    _connect_footprint(8)       # the first connect of a process warms caches
    assert _connect_footprint(8) == _connect_footprint(64)


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
