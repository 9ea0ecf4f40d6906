"""Datapath tests: SEND/RECV, RDMA WRITE/READ, WRITE_WITH_IMM, chaining, errors."""

import pytest

from repro.sim.units import us
from repro.verbs import (
    MemoryAccessError,
    Opcode,
    QPState,
    QPStateError,
    SendWR,
    Sge,
    WCOpcode,
    WCStatus,
)
from repro.verbs.cq import PollMode


def run(tb, gen):
    return tb.sim.run(tb.sim.process(gen))


def test_send_recv_delivers_payload(tb, pair):
    rmr = pair.server_recv_buf(256)
    smr = pair.cpd.reg_mr(256)
    smr.write(b"ping" * 8)

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 32, smr.lkey), wr_id=7))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    def server():
        wcs = yield from pair.s_rcq.wait(PollMode.BUSY)
        return wcs

    sp = tb.sim.process(server())
    cwcs = run(tb, client())
    swcs = tb.sim.run(sp)
    assert cwcs[0].ok and cwcs[0].opcode is WCOpcode.SEND and cwcs[0].wr_id == 7
    assert swcs[0].ok and swcs[0].opcode is WCOpcode.RECV
    assert swcs[0].byte_len == 32
    assert rmr.read(32) == b"ping" * 8


def test_small_send_latency_in_microsecond_range(tb, pair):
    pair.server_recv_buf(256)
    smr = pair.cpd.reg_mr(64)

    def client():
        t0 = tb.sim.now
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 64, smr.lkey)))
        yield from pair.c_scq.wait(PollMode.BUSY)
        return tb.sim.now - t0

    elapsed = run(tb, client())
    # One-way delivery + ack: a few microseconds on EDR.
    assert 1 * us < elapsed < 10 * us


def test_rdma_write_no_remote_completion(tb, pair):
    rmr = pair.spd.reg_mr(128)
    smr = pair.cpd.reg_mr(128)
    smr.write(b"W" * 128)

    def client():
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_WRITE, Sge(smr.addr, 128, smr.lkey),
            remote_addr=rmr.addr, rkey=rmr.rkey))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert wcs[0].ok and wcs[0].opcode is WCOpcode.RDMA_WRITE
    assert rmr.read(128) == b"W" * 128
    assert len(pair.s_rcq) == 0  # one-sided: server saw nothing


def test_write_with_imm_consumes_recv_and_carries_imm(tb, pair):
    rmr = pair.spd.reg_mr(128)
    pair.server_recv_buf(0x40)  # WQE present; its buffer is unused for IMM
    smr = pair.cpd.reg_mr(128)
    smr.write(b"I" * 100)

    def client():
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_WRITE_WITH_IMM, Sge(smr.addr, 100, smr.lkey),
            remote_addr=rmr.addr, rkey=rmr.rkey, imm=0xBEEF))
        yield from pair.c_scq.wait(PollMode.BUSY)

    def server():
        wcs = yield from pair.s_rcq.wait(PollMode.BUSY)
        return wcs

    sp = tb.sim.process(server())
    run(tb, client())
    wcs = tb.sim.run(sp)
    assert wcs[0].opcode is WCOpcode.RECV_RDMA_WITH_IMM
    assert wcs[0].imm == 0xBEEF
    assert wcs[0].byte_len == 100
    assert wcs[0].addr == rmr.addr
    assert rmr.read(100) == b"I" * 100


def test_rdma_read_fetches_remote_payload(tb, pair):
    rmr = pair.spd.reg_mr(4096)
    rmr.write(b"R" * 4096)
    lmr = pair.cpd.reg_mr(4096)

    def client():
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_READ, Sge(lmr.addr, 4096, lmr.lkey),
            remote_addr=rmr.addr, rkey=rmr.rkey))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert wcs[0].ok and wcs[0].opcode is WCOpcode.RDMA_READ
    assert lmr.read(4096) == b"R" * 4096


def test_chained_wrs_single_doorbell(tb, pair):
    rmr = pair.spd.reg_mr(1024)
    pair.server_recv_buf(64)
    smr = pair.cpd.reg_mr(1024)
    smr.write(b"C" * 1024)
    before = pair.cdev.doorbells

    def client():
        notify = SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey), wr_id=2)
        write = SendWR(Opcode.RDMA_WRITE, Sge(smr.addr, 512, smr.lkey),
                       remote_addr=rmr.addr, rkey=rmr.rkey, wr_id=1,
                       signaled=False, next=notify)
        yield from pair.cqp.post_send(write)
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert pair.cdev.doorbells == before + 1
    assert pair.cdev.wrs_posted == 2
    # Only the signaled (second) WR completed.
    assert [w.wr_id for w in wcs] == [2]
    assert rmr.read(512) == b"C" * 512


def test_chain_preserves_order_write_before_notify(tb, pair):
    """The notify SEND must arrive after the chained WRITE's data is visible."""
    rmr = pair.spd.reg_mr(1024)
    pair.server_recv_buf(64)
    smr = pair.cpd.reg_mr(1024)
    smr.write(b"D" * 1024)

    def client():
        notify = SendWR(Opcode.SEND, Sge(smr.addr, 8, smr.lkey))
        write = SendWR(Opcode.RDMA_WRITE, Sge(smr.addr, 1024, smr.lkey),
                       remote_addr=rmr.addr, rkey=rmr.rkey,
                       signaled=False, next=notify)
        yield from pair.cqp.post_send(write)

    def server():
        yield from pair.s_rcq.wait(PollMode.BUSY)
        return rmr.read(1024)  # read at the moment the notify lands

    sp = tb.sim.process(server())
    run(tb, client())
    assert tb.sim.run(sp) == b"D" * 1024


def test_post_send_requires_rts(tb, pair):
    qp = pair.cdev.create_qp(pair.cpd, pair.c_scq, pair.c_rcq)
    smr = pair.cpd.reg_mr(64)

    def client():
        yield from qp.post_send(SendWR(Opcode.SEND, Sge(smr.addr, 8, smr.lkey)))

    p = tb.sim.process(client())
    with pytest.raises(QPStateError):
        tb.sim.run(p)


def test_bad_rkey_errors_both_qps(tb, pair):
    smr = pair.cpd.reg_mr(64)

    def client():
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_WRITE, Sge(smr.addr, 64, smr.lkey),
            remote_addr=0x40, rkey=0xDEAD))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert wcs[0].status is WCStatus.REM_ACCESS_ERR
    assert pair.cqp.state is QPState.ERROR
    assert pair.sqp.state is QPState.ERROR


def test_rnr_retry_succeeds_after_late_post_recv(tb, pair):
    smr = pair.cpd.reg_mr(64)
    pair.server_ring(64)

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey)))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    def late_server():
        yield tb.sim.timeout(30 * us)  # a few RNR timer periods
        yield from pair.sqp.post_recv(0)

    tb.sim.process(late_server())
    wcs = run(tb, client())
    assert wcs[0].ok


def test_rnr_retries_exhausted_is_error(tb, pair):
    smr = pair.cpd.reg_mr(64)

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey)))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert wcs[0].status is WCStatus.RNR_RETRY_EXC_ERR
    assert pair.cqp.state is QPState.ERROR


def test_send_larger_than_recv_buffer_loc_len_err(tb, pair):
    pair.server_recv_buf(16)
    smr = pair.cpd.reg_mr(256)

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 256, smr.lkey)))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    def server():
        wcs = yield from pair.s_rcq.wait(PollMode.BUSY)
        return wcs

    sp = tb.sim.process(server())
    cwcs = run(tb, client())
    swcs = tb.sim.run(sp)
    assert swcs[0].status is WCStatus.LOC_LEN_ERR
    assert cwcs[0].status is WCStatus.REM_ACCESS_ERR


def test_qp_error_flushes_pending_recvs(tb, pair):
    pair.server_recv_buf(64, slots=2)
    pair.post_server(1)
    pair.sqp.to_error()
    wcs = pair.s_rcq.poll()
    assert [w.wr_id for w in wcs] == [0, 1]
    assert all(w.status is WCStatus.WR_FLUSH_ERR for w in wcs)


def test_srq_shared_between_qps(tb, srq_pair):
    p = srq_pair
    p.server_ring(64, slots=2)
    p.post_server(0, 1)
    smr = p.cpd.reg_mr(64)
    smr.write(b"S" * 64)

    def client():
        for _ in range(2):
            yield from p.cqp.post_send(
                SendWR(Opcode.SEND, Sge(smr.addr, 64, smr.lkey)))
            yield from p.c_scq.wait(PollMode.BUSY)

    run(tb, client())
    assert len(p.srq) == 0
    assert len(p.s_rcq.poll(8)) == 2


def test_post_recv_on_srq_qp_rejected(tb, srq_pair):
    srq_pair.server_ring(64)

    def post():
        yield from srq_pair.sqp.post_recv(0)

    p = tb.sim.process(post())
    with pytest.raises(QPStateError):
        tb.sim.run(p)


def test_registered_bytes_accounting(tb, pair):
    before = pair.cdev.registered_bytes
    mr = pair.cpd.reg_mr(4096)
    assert pair.cdev.registered_bytes == before + 4096
    mr.deregister()
    assert pair.cdev.registered_bytes == before


def test_event_polling_slower_than_busy_but_wakes(tb, pair):
    pair.server_recv_buf(64, slots=2)
    smr = pair.cpd.reg_mr(64)
    lat = {}

    def bench(mode):
        t0 = tb.sim.now
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 8, smr.lkey)))
        yield from pair.c_scq.wait(mode)
        lat[mode.value] = tb.sim.now - t0

    run(tb, bench(PollMode.BUSY))
    pair.post_server(1)
    run(tb, bench(PollMode.EVENT))
    assert lat["event"] > lat["busy"]
    # Event polling pays roughly the interrupt latency extra.
    assert lat["event"] - lat["busy"] > 2 * us


def test_failed_wr_flushes_the_rest_of_its_chain(tb, pair):
    """RC: the responder enters ERROR when it rejects WR 2, so WR 3 lands
    nowhere, and every WR after the failed one completes WR_FLUSH_ERR --
    signaled or not."""
    rmr = pair.spd.reg_mr(256)
    smr = pair.cpd.reg_mr(256)
    smr.write(b"1" * 64 + b"2" * 64 + b"3" * 64)

    def client():
        third = SendWR(Opcode.RDMA_WRITE, Sge(smr.addr + 128, 64, smr.lkey),
                       remote_addr=rmr.addr + 128, rkey=rmr.rkey, wr_id=3,
                       signaled=False)
        second = SendWR(Opcode.RDMA_WRITE, Sge(smr.addr + 64, 64, smr.lkey),
                        remote_addr=rmr.addr + 64, rkey=0xDEAD, wr_id=2,
                        next=third)
        first = SendWR(Opcode.RDMA_WRITE, Sge(smr.addr, 64, smr.lkey),
                       remote_addr=rmr.addr, rkey=rmr.rkey, wr_id=1,
                       next=second)
        yield from pair.cqp.post_send(first)

    run(tb, client())
    tb.sim.run()
    wcs = pair.c_scq.poll()
    assert [(w.wr_id, w.status) for w in wcs] == [
        (1, WCStatus.SUCCESS), (2, WCStatus.REM_ACCESS_ERR),
        (3, WCStatus.WR_FLUSH_ERR)]
    assert rmr.read(64) == b"1" * 64
    assert rmr.read(128, offset=64) == bytes(128)
    assert pair.cqp.state is QPState.ERROR
    assert pair.sqp.state is QPState.ERROR
    assert len(pair.s_rcq) == 0


# -- a slot list in one post_recv (ibv_post_recv with a chained list) -------

def test_bind_recv_binds_a_ring_once(tb, pair):
    """A ring must lie inside its MR, and a queue is bound once."""
    mr = pair.spd.reg_mr(4 * 64)
    with pytest.raises(MemoryAccessError):
        pair.sqp.bind_recv(mr, 5, 64)
    pair.sqp.bind_recv(mr, 4, 64)
    with pytest.raises(QPStateError):
        pair.sqp.bind_recv(mr, 4, 64)


@pytest.mark.parametrize("bad", [0, 3, 7])
def test_post_recv_list_bad_lkey_posts_nothing_and_spends_nothing(tb, pair,
                                                                  bad):
    """A list with one slot outside the ring, or any list once the ring's
    MR is deregistered (its lkey is unknown), raises before any time
    passes."""
    mr = pair.server_ring(64, slots=8)
    cpu = tb.node(1).cpu
    t0 = tb.sim.now
    slots = list(range(8))
    outside = slots[:bad] + [8] + slots[bad + 1:]

    def post(slots):
        yield from pair.sqp.post_recv(slots)

    with pytest.raises(MemoryAccessError, match="outside"):
        run(tb, post(outside))
    mr.deregister()
    with pytest.raises(MemoryAccessError, match="unknown lkey"):
        run(tb, post(slots))
    assert pair.sqp.recv_depth == 0
    assert tb.sim.now == t0
    assert cpu.busy_core_seconds == 0.0


def test_post_recv_list_on_error_qp_raises(tb, pair):
    pair.server_ring(64, slots=4)
    pair.sqp.to_error()

    def post():
        yield from pair.sqp.post_recv([0, 1, 2, 3])

    with pytest.raises(QPStateError):
        run(tb, post())
    assert pair.sqp.recv_depth == 0


def test_post_recv_list_on_srq_qp_raises(tb, srq_pair):
    srq_pair.server_ring(64, slots=4)

    def post():
        yield from srq_pair.sqp.post_recv([0, 1, 2, 3])

    with pytest.raises(QPStateError):
        run(tb, post())
    assert len(srq_pair.srq) == 0


def test_post_recv_list_qp_errored_during_the_charge_posts_nothing(tb, pair):
    pair.server_ring(64, slots=4)

    def post():
        yield from pair.sqp.post_recv([0, 1, 2, 3])

    def kill():
        yield tb.sim.timeout(1e-9)
        pair.sqp.to_error()

    tb.sim.process(kill())
    with pytest.raises(QPStateError):
        run(tb, post())
    assert pair.sqp.recv_depth == 0
    assert pair.s_rcq.poll(8) == []         # nothing was there to flush


@pytest.mark.parametrize("before", [(), (2e-9,)])
def test_post_qp_errored_during_the_job_posts_nothing(tb, pair, before):
    """Every post re-checks its QP when its CPU job ends, with or without
    leading pieces: one that lost its state posts nothing and raises."""
    pair.server_ring(64)
    smr = pair.cpd.reg_mr(64)
    sends = pair.cdev.wrs_posted

    def post_recv():
        yield from pair.sqp.post_recv(0, before)

    def post_send():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 8, smr.lkey)), before=before)

    def kill(qp):
        yield tb.sim.timeout(1e-9)
        qp.to_error()

    tb.sim.process(kill(pair.sqp))
    with pytest.raises(QPStateError):
        run(tb, post_recv())
    assert pair.sqp.recv_depth == 0
    tb.sim.process(kill(pair.cqp))
    with pytest.raises(QPStateError):
        run(tb, post_send())
    assert pair.cdev.wrs_posted == sends


def test_post_recv_list_refuses_leading_pieces(tb, pair, srq_pair):
    pair.server_ring(64, slots=2)
    srq_pair.server_ring(64, slots=2)

    def post(queue):
        yield from queue.post_recv([0, 1], (1e-9,))

    for queue in (pair.sqp, srq_pair.srq):
        with pytest.raises(ValueError):
            run(tb, post(queue))
    assert pair.sqp.recv_depth == 0 and len(srq_pair.srq) == 0


def test_post_recv_list_is_one_job_of_equal_pieces(tb, pair):
    """A list of n costs what n single posts cost, to the float, and lands
    in list order."""
    pair.server_ring(64, slots=6)
    slots = [4, 1, 5, 0, 3, 2]

    def post():
        yield from pair.sqp.post_recv(slots)

    run(tb, post())
    t = 0.0
    for _ in slots:
        t += pair.sdev.cost.post_recv_cpu
    assert tb.sim.now == t
    pair.sqp.to_error()
    assert [w.wr_id for w in pair.s_rcq.poll(8)] == slots


def test_post_recv_list_lands_in_order_and_flushes_in_order(tb, pair):
    pair.server_ring(64, slots=6)

    def post():
        yield from pair.sqp.post_recv(5)
        yield from pair.sqp.post_recv([4, 3, 2, 1, 0])

    run(tb, post())
    assert pair.sqp.recv_depth == 6
    pair.sqp.to_error()
    wcs = pair.s_rcq.poll(16)
    assert [w.wr_id for w in wcs] == [5, 4, 3, 2, 1, 0]
    assert all(w.status is WCStatus.WR_FLUSH_ERR for w in wcs)


def test_slot_geometry_sets_landing_address_and_capacity(tb, pair):
    """A SEND into slot i lands at ``base + i * slot_bytes`` and completes
    with ``wr_id=i``; one longer than a slot is LOC_LEN_ERR on that slot."""
    rmr = pair.server_ring(64, slots=4)
    pair.post_server(2, 1)
    smr = pair.cpd.reg_mr(256)
    smr.write(b"a" * 64)

    def client():
        for off, n in ((0, 64), (64, 65)):
            yield from pair.cqp.post_send(
                SendWR(Opcode.SEND, Sge(smr.addr + off, n, smr.lkey)))
            yield from pair.c_scq.wait(PollMode.BUSY)

    run(tb, client())
    ok, too_long = pair.s_rcq.poll(8)
    assert (ok.wr_id, ok.status, ok.addr) == (2, WCStatus.SUCCESS,
                                             rmr.addr + 128)
    assert rmr.read(64, offset=128) == b"a" * 64
    assert (too_long.wr_id, too_long.status) == (1, WCStatus.LOC_LEN_ERR)
