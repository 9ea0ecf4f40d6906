"""Connection-manager handshake tests."""

import pytest

from repro.verbs import Opcode, QPState, SendWR, Sge
from repro.verbs import cm
from repro.verbs.cq import PollMode


def test_connect_accept_exchanges_private_data(tb):
    cdev, sdev = tb.node(0).nic, tb.node(1).nic
    lst = cm.listen(sdev, 42)
    spd = sdev.alloc_pd()
    cpd = cdev.alloc_pd()
    got = {}

    def server():
        req = yield lst.accept()
        got["client_data"] = req.private_data
        scq, rcq = sdev.create_cq(), sdev.create_cq()
        qp = sdev.create_qp(spd, scq, rcq)
        yield from req.accept(qp, private_data=b"server-info")
        got["sqp"] = qp

    def client():
        scq, rcq = cdev.create_cq(), cdev.create_cq()
        qp = cdev.create_qp(cpd, scq, rcq)
        data = yield from cm.connect(qp, tb.node(1), 42, private_data=b"hello-cm")
        got["server_data"] = data
        got["cqp"] = qp

    tb.sim.process(server())
    tb.sim.process(client())
    tb.sim.run()
    assert got["client_data"] == b"hello-cm"
    assert got["server_data"] == b"server-info"
    assert got["cqp"].state is QPState.RTS
    assert got["cqp"].peer is got["sqp"]
    assert got["sqp"].peer is got["cqp"]


def test_connect_without_listener_refused(tb):
    cdev = tb.node(0).nic
    pd = cdev.alloc_pd()
    qp = cdev.create_qp(pd, cdev.create_cq(), cdev.create_cq())

    def client():
        yield from cm.connect(qp, tb.node(1), 99)

    p = tb.sim.process(client())
    with pytest.raises(ConnectionRefusedError):
        tb.sim.run(p)


def test_reject_propagates_to_client(tb):
    sdev = tb.node(1).nic
    lst = cm.listen(sdev, 7)

    def server():
        req = yield lst.accept()
        yield from req.reject("full")

    cdev = tb.node(0).nic
    qp = cdev.create_qp(cdev.alloc_pd(), cdev.create_cq(), cdev.create_cq())

    def client():
        yield from cm.connect(qp, tb.node(1), 7)

    tb.sim.process(server())
    p = tb.sim.process(client())
    with pytest.raises(ConnectionRefusedError):
        tb.sim.run(p)
    assert not p.ok


def test_connected_pair_passes_traffic(tb):
    cdev, sdev = tb.node(0).nic, tb.node(1).nic
    lst = cm.listen(sdev, 1)
    result = {}

    def server():
        req = yield lst.accept()
        pd = sdev.alloc_pd()
        rcq = sdev.create_cq()
        qp = sdev.create_qp(pd, sdev.create_cq(), rcq)
        mr = pd.reg_mr(128)
        qp.bind_recv(mr, 1, 128)
        yield from qp.post_recv(0)
        yield from req.accept(qp)
        wcs = yield from rcq.wait(PollMode.BUSY)
        result["payload"] = mr.read(wcs[0].byte_len)

    def client():
        pd = cdev.alloc_pd()
        scq = cdev.create_cq()
        qp = cdev.create_qp(pd, scq, cdev.create_cq())
        yield from cm.connect(qp, tb.node(1), 1)
        mr = pd.reg_mr(64)
        mr.write(b"via-cm!!")
        yield from qp.post_send(SendWR(Opcode.SEND, Sge(mr.addr, 8, mr.lkey)))
        yield from scq.wait(PollMode.BUSY)

    tb.sim.process(server())
    tb.sim.process(client())
    tb.sim.run()
    assert result["payload"] == b"via-cm!!"


def test_double_listen_rejected(tb):
    sdev = tb.node(1).nic
    cm.listen(sdev, 5)
    with pytest.raises(Exception):
        cm.listen(sdev, 5)
