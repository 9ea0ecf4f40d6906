"""Link faults on the verbs datapath: transport retry, exhaustion, mapping.

The RC transport retries sends across link-down windows and packet loss
(:meth:`QP._transport_guard`); when the retry budget runs out the WR
completes with ``WCStatus.RETRY_EXC_ERR`` -- errors are *returned* as
completions, never raised from NIC context.  The thrift layer then maps
retry-exhaustion statuses onto ``TTransportException(TIMED_OUT)``.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.thrift.errors import (TTransportException,
                                 transport_exception_from_wc)
from repro.verbs import Opcode, QPState, SendWR, Sge, WCStatus
from repro.verbs.cq import PollMode


def run(tb, gen):
    return tb.sim.run(tb.sim.process(gen))


def flap(tb, node_name, start, duration):
    plan = FaultPlan(events=(LinkFlap(node_name, start, duration),))
    FaultInjector(tb, plan).arm()


def retry_budget(tb):
    cost = tb.cost_model
    return cost.transport_retry_limit * cost.transport_retry_timeout


def test_send_through_long_link_down_retry_exc_err(tb, pair):
    pair.server_recv_buf(64)
    smr = pair.cpd.reg_mr(64)
    flap(tb, "node1", start=0.0, duration=10 * retry_budget(tb))

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey)))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert wcs[0].status is WCStatus.RETRY_EXC_ERR
    assert wcs[0].status.retryable        # safe for an idempotent re-send
    assert pair.cqp.state is QPState.ERROR
    assert tb.fabric.ports["node0"].faults_seen >= 1


def test_send_rides_out_short_flap(tb, pair):
    pair.server_recv_buf(64)
    smr = pair.cpd.reg_mr(64)
    window = retry_budget(tb) / 3
    flap(tb, "node1", start=0.0, duration=window)

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey)))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs, tb.sim.now

    wcs, elapsed = run(tb, client())
    assert wcs[0].ok
    assert elapsed > window               # the flap showed up as latency


def test_rdma_read_hits_transport_guard_too(tb, pair):
    rmr = pair.spd.reg_mr(64)
    lmr = pair.cpd.reg_mr(64)
    flap(tb, "node1", start=0.0, duration=10 * retry_budget(tb))

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.RDMA_READ, Sge(lmr.addr, 64, lmr.lkey),
                   remote_addr=rmr.addr, rkey=rmr.rkey))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        return wcs

    wcs = run(tb, client())
    assert wcs[0].status is WCStatus.RETRY_EXC_ERR


@pytest.mark.parametrize("status", [WCStatus.RNR_RETRY_EXC_ERR,
                                    WCStatus.RETRY_EXC_ERR])
def test_retry_exhaustion_maps_to_timed_out(status):
    exc = transport_exception_from_wc(status)
    assert isinstance(exc, TTransportException)
    assert exc.type == TTransportException.TIMED_OUT


def test_rnr_exhaustion_surfaces_to_caller_as_timeout(tb, pair):
    # No recv posted, ever: the sender exhausts its RNR retry budget and the
    # caller sees a typed TIMED_OUT transport exception built from the WC.
    smr = pair.cpd.reg_mr(64)

    def client():
        yield from pair.cqp.post_send(
            SendWR(Opcode.SEND, Sge(smr.addr, 16, smr.lkey)))
        wcs = yield from pair.c_scq.wait(PollMode.BUSY)
        if wcs[0].status.is_error:
            raise transport_exception_from_wc(wcs[0].status)
        return wcs

    with pytest.raises(TTransportException) as ei:
        run(tb, client())
    assert ei.value.type == TTransportException.TIMED_OUT
    assert "rnr" in str(ei.value).lower()
