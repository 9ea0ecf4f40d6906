"""Exact schedules of the NIC datapath's edge cases.

Each case logs every completion the moment the NIC pushes it -- the
simulated time (as ``repr`` of the float), the CQ, ``wr_id``, opcode,
status and byte count -- plus the final clock.  The expected logs are pinned
values: the datapath may change how it is run, never *when* a completion
appears or in which order.  Run the file as a script to print the logs of
the tree on ``PYTHONPATH``.

* a READ followed by a WRITE in one chain: the WRITE wins the TX port, the
  READ's request queues behind it, and the READ's completion is still
  reaped first;
* a chain crossing a short :class:`~repro.faults.LinkFlap`: each WR's
  transport guard retries on its own schedule and the chain completes;
* an RNR (receiver-not-ready) retry in the middle of a chain of SENDs that
  succeeds once the late receive slots are posted.
"""

from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.sim.units import us
from repro.testbed import Testbed
from repro.verbs import Opcode, SendWR, Sge


def _watch(tb, log, name, cq):
    push = cq.push

    def logged(wc):
        log.append((repr(tb.sim.now), name, wc.wr_id, wc.opcode.name,
                    wc.status.name, wc.byte_len))
        push(wc)

    cq.push = logged


def _pair():
    # Imported here so the module also runs as a script (no conftest).
    from tests.verbs.conftest import Pair
    tb = Testbed(n_nodes=2)
    pair = Pair(tb)
    log = []
    for name in ("c_scq", "c_rcq", "s_scq", "s_rcq"):
        _watch(tb, log, name, getattr(pair, name))
    return tb, pair, log


def read_then_write():
    tb, pair, log = _pair()
    rmr = pair.spd.reg_mr(8192)
    rmr.write(b"R" * 4096)
    lmr = pair.cpd.reg_mr(8192)
    lmr.write(b"W" * 4096, offset=4096)

    def client():
        write = SendWR(Opcode.RDMA_WRITE, Sge(lmr.addr + 4096, 4096, lmr.lkey),
                       remote_addr=rmr.addr + 4096, rkey=rmr.rkey, wr_id=2)
        read = SendWR(Opcode.RDMA_READ, Sge(lmr.addr, 4096, lmr.lkey),
                      remote_addr=rmr.addr, rkey=rmr.rkey, wr_id=1,
                      next=write)
        yield from pair.cqp.post_send(read)

    tb.sim.process(client())
    tb.sim.run()
    assert lmr.read(4096) == b"R" * 4096
    assert rmr.read(4096, offset=4096) == b"W" * 4096
    return log, repr(tb.sim.now)


def chain_through_flap():
    tb, pair, log = _pair()
    cost = tb.cost_model
    window = cost.transport_retry_limit * cost.transport_retry_timeout / 3
    FaultInjector(tb, FaultPlan(events=(
        LinkFlap("node1", 2.4 * us, window),))).arm()
    rmr = pair.spd.reg_mr(4096)
    pair.server_recv_buf(64, slots=103)
    smr = pair.cpd.reg_mr(4096)
    smr.write(b"F" * 4096)

    def client():
        for k in range(3):
            imm = SendWR(Opcode.RDMA_WRITE_WITH_IMM, Sge(smr.addr, 64, smr.lkey),
                         remote_addr=rmr.addr, rkey=rmr.rkey, imm=k,
                         wr_id=10 * k + 2)
            write = SendWR(Opcode.RDMA_WRITE, Sge(smr.addr, 2048, smr.lkey),
                           remote_addr=rmr.addr, rkey=rmr.rkey,
                           wr_id=10 * k + 1, next=imm)
            yield from pair.cqp.post_send(write)
            yield from pair.sqp.post_recv(100 + k)
            yield tb.sim.timeout(1 * us)

    tb.sim.process(client())
    tb.sim.run()
    return log, repr(tb.sim.now)


def rnr_mid_chain():
    tb, pair, log = _pair()
    smr = pair.cpd.reg_mr(256)
    smr.write(b"N" * 256)
    pair.server_recv_buf(64, slots=202)

    def client():
        sends = None
        for k in reversed(range(3)):
            sends = SendWR(Opcode.SEND, Sge(smr.addr, 32, smr.lkey),
                           wr_id=k, next=sends)
        yield from pair.cqp.post_send(sends)

    def late_server():
        yield tb.sim.timeout(25 * us)
        for k in range(2):
            yield from pair.sqp.post_recv(200 + k)

    tb.sim.process(client())
    tb.sim.process(late_server())
    tb.sim.run()
    return log, repr(tb.sim.now)


CASES = {"read_then_write": read_then_write,
         "chain_through_flap": chain_through_flap,
         "rnr_mid_chain": rnr_mid_chain}

#: captured before the datapath ran as callbacks (WRs as processes)
EXPECTED = {
    'read_then_write': ([
        ('4.184e-06', 'c_scq', 1, 'RDMA_READ', 'SUCCESS', 4096),
        ('4.184e-06', 'c_scq', 2, 'RDMA_WRITE', 'SUCCESS', 4096),
    ], '4.184e-06'),
    'chain_through_flap': ([
        ('2.16e-06', 's_rcq', 0, 'RECV_RDMA_WITH_IMM', 'SUCCESS', 64),
        ('3.0524800000000003e-06', 'c_scq', 1, 'RDMA_WRITE', 'SUCCESS', 2048),
        ('3.1600000000000002e-06', 'c_scq', 2, 'RDMA_WRITE', 'SUCCESS', 64),
        ('4.52248e-06', 'c_scq', 11, 'RDMA_WRITE', 'SUCCESS', 2048),
        ('0.00015352128', 's_rcq', 100, 'RECV_RDMA_WITH_IMM', 'SUCCESS', 64),
        ('0.00015452127999999999', 'c_scq', 12, 'RDMA_WRITE', 'SUCCESS', 64),
        ('0.0001551', 's_rcq', 101, 'RECV_RDMA_WITH_IMM', 'SUCCESS', 64),
        ('0.00015599247999999999', 'c_scq', 21, 'RDMA_WRITE', 'SUCCESS', 2048),
        ('0.0001561', 'c_scq', 22, 'RDMA_WRITE', 'SUCCESS', 64),
    ], '0.0001561'),
    'rnr_mid_chain': ([
        ('1.80992e-06', 's_rcq', 0, 'RECV', 'SUCCESS', 32),
        ('2.8099199999999997e-06', 'c_scq', 0, 'SEND', 'SUCCESS', 32),
        ('3.196488e-05', 's_rcq', 200, 'RECV', 'SUCCESS', 32),
        ('3.211984e-05', 's_rcq', 201, 'RECV', 'SUCCESS', 32),
        ('3.296488e-05', 'c_scq', 1, 'SEND', 'SUCCESS', 32),
        ('3.311984e-05', 'c_scq', 2, 'SEND', 'SUCCESS', 32),
    ], '3.311984e-05'),
}


def test_read_then_write_in_one_chain():
    assert read_then_write() == EXPECTED["read_then_write"]


def test_chain_through_a_short_link_flap():
    assert chain_through_flap() == EXPECTED["chain_through_flap"]


def test_rnr_retry_succeeds_mid_chain():
    assert rnr_mid_chain() == EXPECTED["rnr_mid_chain"]


if __name__ == "__main__":  # pragma: no cover - refresh aid
    print("EXPECTED = {")
    for name, case in CASES.items():
        log, end = case()
        print(f"    {name!r}: ([")
        for entry in log:
            print(f"        {entry!r},")
        print(f"    ], {end!r}),")
    print("}")
