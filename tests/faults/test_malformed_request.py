"""A request that is not a readable Thrift message ends the connection it
came on -- the client sees a typed transport error -- and nothing else: the
server keeps serving, on all three servers (a per-connection ``RpcServer``
serve loop, the shared-receive-queue dispatcher, a ``TThreadedServer``
connection thread)."""

import pytest

from repro.core.engine import pinned_plan
from repro.core.resilience import RetryPolicy
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.idl import load_idl
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.thrift import TBinaryProtocol, TMemoryBuffer, TMessageType
from repro.thrift.errors import TTransportException
from repro.verbs.cq import PollMode

IDL = """
service Mirror {
    binary Echo(1: binary payload)
}
"""

#: server flavor -> (pinned wire protocol, HatRpcServer(srq=...))
SERVERS = {
    "per_connection": ("eager_sendrecv", False),
    "srq": ("eager_sendrecv", True),
    "tcp": ("tcp", False),
}


@pytest.fixture(scope="module")
def gen():
    return load_idl(IDL, "malformed_request_gen")


def _truncated(gen) -> bytes:
    """A well-formed Echo call cut off inside its payload."""
    buf = TMemoryBuffer()
    prot = TBinaryProtocol(buf)
    prot.write_message_begin("Echo", TMessageType.CALL, 999)
    gen.Echo_args(payload=b"x" * 32).write(prot)
    return buf.getvalue()[:-8]


MESSAGES = {
    # the version word is missing: TProtocolException out of the processor
    "bad_version": lambda gen: b"\x00\x00\x00\x07garbage!",
    # the payload is short: TTransportException(END_OF_FILE)
    "truncated": _truncated,
}


@pytest.mark.parametrize("flavor", list(SERVERS))
@pytest.mark.parametrize("message", list(MESSAGES))
def test_malformed_request_closes_only_its_connection(gen, flavor, message):
    protocol, srq = SERVERS[flavor]
    tb = Testbed(n_nodes=3)
    plan = pinned_plan("Mirror", ["Echo"], protocol, PollMode.BUSY,
                       max_msg=8 * KiB)
    server = HatRpcServer(tb.node(0), gen, "Mirror", type(
        "H", (), {"Echo": lambda self, payload: payload})(), plan=plan,
        srq=srq).start()

    def connect(node):
        return hatrpc_connect(tb.node(node), tb.node(0), gen, "Mirror",
                              plan=plan,
                              retry_policy=RetryPolicy(max_attempts=1))

    def bad_client():
        stub = yield from connect(1)
        assert (yield from stub.Echo(b"warm")) == b"warm"
        engine = stub._hatrpc.engine
        try:
            yield from engine.call("Echo", MESSAGES[message](gen), seqid=999)
        except TTransportException as exc:
            return type(exc)
        return None

    def fresh_client():
        stub = yield from connect(2)
        return (yield from stub.Echo(b"still served"))

    assert tb.sim.run(tb.sim.process(bad_client())) is TTransportException
    assert tb.sim.run(tb.sim.process(fresh_client())) == b"still served"
    tb.sim.run()
    (srv,) = server.endpoint.servers
    assert srv.teardowns == 1
    assert server.requests == 2         # the warm-up and the fresh call
