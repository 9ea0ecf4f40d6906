"""One "serve one request", three servers: whatever carries the request --
a per-connection ``RpcServer`` serve loop, the shared-receive-queue
dispatcher's per-request process, or a ``TThreadedServer`` connection
thread -- a served, a shed and a dead-connection request must each leave
the same server span behind (stage sequence and root status) and count the
same way (every request *answered* is a request; one whose connection died
is not)."""

import random

import pytest

from repro import obs
from repro.core.engine import pinned_plan
from repro.core.overload import AdmissionConfig
from repro.core.resilience import RetryPolicy
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.idl import load_idl
from repro.obs import trace as obstrace
from repro.sim.units import KiB, ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TRejectedException, TTransportException
from repro.verbs.cq import PollMode

IDL = """
service ServeKV {
    string Get(1: string k)
    string Slow(1: string k)
}
"""

#: server flavor -> (pinned wire protocol, HatRpcServer(srq=...), the name
#: its request counter goes by in the registry)
SERVERS = {
    "per_connection": ("eager_sendrecv", False,
                       "proto.eager_sendrecv.server_requests"),
    "srq": ("eager_sendrecv", True, "proto.eager_srq.server_requests"),
    "tcp": ("tcp", False, "thrift.requests"),
}

SERVE_STAGES = ("poll", "admission", "dispatch", "reply")


@pytest.fixture(scope="module")
def gen():
    return load_idl(IDL, "serve_parity_gen")


class Handler:
    def __init__(self, tb):
        self.tb = tb

    def Get(self, k):
        return k

    def Slow(self, k):
        yield self.tb.sim.timeout(2 * ms)
        return k


def drive(gen, flavor, scenario):
    """Run ``scenario`` against a gated server of ``flavor``; returns the
    traced request's server-side verdict and the server's counts."""
    protocol, srq, counter = SERVERS[flavor]
    with obs.installed() as reg, obstrace.installed() as col:
        tb = Testbed(n_nodes=3)
        plan = pinned_plan("ServeKV", gen.SERVICE_FUNCTIONS["ServeKV"],
                           protocol, PollMode.BUSY, max_msg=8 * KiB)
        server = HatRpcServer(
            tb.node(0), gen, "ServeKV", Handler(tb), plan=plan, srq=srq,
            admission=AdmissionConfig(capacity=1, retry_after_base=100 * us),
        ).start()

        def connect(node, **kw):
            return hatrpc_connect(tb.node(node), tb.node(0), gen, "ServeKV",
                                  plan=plan, rng=random.Random(5),
                                  retry_policy=RetryPolicy(max_attempts=1),
                                  trace_attrs={"who": kw.pop("who")}, **kw)

        def occupier():
            stub = yield from connect(2, who="occupier")
            yield from stub.Slow("hold")         # holds the one slot 2 ms

        def client():
            if scenario == "shed":
                yield tb.sim.timeout(500 * us)   # the occupier is in
            deadline = 500 * us if scenario == "dead_connection" else None
            stub = yield from connect(1, who="subject", deadline=deadline)
            method = "Slow" if scenario == "dead_connection" else "Get"
            try:
                return (yield from getattr(stub, method)("k"))
            except TTransportException as exc:
                return type(exc), exc.type

        if scenario == "shed":
            tb.sim.process(occupier())
        outcome = tb.sim.run(tb.sim.process(client()))
        tb.sim.run()

        (root,) = [s for s in col.spans
                   if s.kind == "client" and not s.parent_span_id
                   and s.attrs.get("who") == "subject"]
        spans = [s for s in col.spans if s.trace_id == root.trace_id]
        (srv,) = [s for s in spans if s.kind == "server"]
        stages = [s.name for s in spans
                  if s.node == "node0" and s.name in SERVE_STAGES]
        admitted = [s.attrs["admitted"] for s in spans
                    if s.name == "admission"]
        return dict(outcome=outcome, stages=stages, status=srv.status,
                    admitted=admitted, requests=server.requests,
                    counted=reg.flat_values()[counter],
                    rejected=server.gate.rejected,
                    occupancy=server.gate.inflight)


EXPECT = {
    # Get answered: counted.
    "served": dict(
        outcome="k", stages=["poll", "dispatch", "admission", "reply"],
        status="ok", admitted=[True], requests=1, counted=1, rejected=0,
        occupancy=0),
    # The occupier's Slow and the subject's refused Get were both answered
    # (the refusal is a reply like any other): 2 sent, 1 shed => 2 counted.
    "shed": dict(
        outcome=(TRejectedException, TTransportException.REJECTED),
        stages=["poll", "dispatch", "admission", "reply"],
        status="rejected", admitted=[False], requests=2, counted=2,
        rejected=1, occupancy=0),
    # The deadline discards the channel while Slow runs: the reply finds a
    # dead connection, so the request was never answered -- and its
    # admission slot still came back.
    "dead_connection": dict(
        outcome=(TTransportException, TTransportException.TIMED_OUT),
        stages=["poll", "dispatch", "admission"], status="dead_conn",
        admitted=[True], requests=0, counted=0, rejected=0, occupancy=0),
}


@pytest.mark.parametrize("flavor", list(SERVERS))
@pytest.mark.parametrize("scenario", list(EXPECT))
def test_every_server_serves_one_request_alike(gen, scenario, flavor):
    assert drive(gen, flavor, scenario) == EXPECT[scenario]
