"""Shared fixtures for verbs tests: a two-node testbed with a connected QP pair."""

import pytest

from repro.testbed import Testbed
from repro.verbs.qp import connect_pair


@pytest.fixture
def tb():
    return Testbed(n_nodes=2)


class Pair:
    """A connected client/server QP pair with one CQ each side."""

    def __init__(self, tb, srq=False):
        self.tb = tb
        self.cdev = tb.node(0).nic
        self.sdev = tb.node(1).nic
        self.cpd = self.cdev.alloc_pd()
        self.spd = self.sdev.alloc_pd()
        self.c_scq = self.cdev.create_cq()
        self.c_rcq = self.cdev.create_cq()
        self.s_scq = self.sdev.create_cq()
        self.s_rcq = self.sdev.create_cq()
        self.srq = self.sdev.create_srq() if srq else None
        self.cqp = self.cdev.create_qp(self.cpd, self.c_scq, self.c_rcq)
        self.sqp = self.sdev.create_qp(self.spd, self.s_scq, self.s_rcq,
                                       srq=self.srq)
        connect_pair(self.cqp, self.sqp)

    @property
    def rq(self):
        """The server's receive queue: the SRQ, or else its QP."""
        return self.srq if self.srq is not None else self.sqp

    def server_ring(self, slot_bytes, slots=1):
        """Register a ring of ``slots`` x ``slot_bytes`` server-side and
        bind the server's receive queue to it; returns the MR."""
        mr = self.spd.reg_mr(slots * slot_bytes)
        self.rq.bind_recv(mr, slots, slot_bytes)
        return mr

    def post_server(self, *slots):
        """Post ``slots`` to the server's receive queue, one post each."""
        def post():
            for slot in slots:
                yield from self.rq.post_recv(slot)

        self.tb.sim.run(self.tb.sim.process(post()))

    def server_recv_buf(self, size, slots=1):
        """Bind a ring of ``slots`` x ``size`` server-side and post slot 0;
        returns the MR (slot 0 is its first ``size`` bytes)."""
        mr = self.server_ring(size, slots)
        self.post_server(0)
        return mr


@pytest.fixture
def pair(tb):
    return Pair(tb)


@pytest.fixture
def srq_pair(tb):
    return Pair(tb, srq=True)
