"""TRdma transport + HintedProtocol unit tests."""

from types import SimpleNamespace

import pytest

from repro.core.engine import HatRpcEngine, pinned_plan
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.core.trdma import HintedProtocol, TRdma
from repro.idl import load_idl
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.thrift import TBinaryProtocol, TMemoryBuffer, TMessageType
from repro.verbs.cq import PollMode

IDL = """
service Echo {
    string Ping(1: string msg),
    oneway void Fire(1: i64 token),
}
"""


@pytest.fixture(scope="module")
def gen():
    return load_idl(IDL, "trdma_gen")


def test_flush_without_method_context_rejected():
    tb = Testbed(n_nodes=2)
    plan = pinned_plan("Echo", ["Ping"], "direct_writeimm", PollMode.BUSY,
                       max_msg=8 * KiB)
    trans = TRdma(HatRpcEngine(tb.node(0), plan))
    trans.write(b"raw bytes")

    def run():
        yield from trans.flush()

    p = tb.sim.process(run())
    with pytest.raises(RuntimeError, match="HintedProtocol"):
        tb.sim.run(p)


def test_hinted_protocol_captures_method_and_oneway(gen):
    tb = Testbed(n_nodes=2)

    class H:
        def __init__(self):
            self.fired = []

        def Ping(self, msg):
            return msg

        def Fire(self, token):
            self.fired.append(token)

    h = H()
    HatRpcServer(tb.node(0), gen, "Echo", h).start()

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Echo")
        trans = stub._hatrpc.trans
        yield from stub.Ping("a")
        assert trans._current_fn == "Ping"
        assert trans._current_oneway is False
        yield from stub.Fire(9)
        assert trans._current_fn == "Fire"
        assert trans._current_oneway is True
        return trans._fn_switches

    p = tb.sim.process(client())
    switches = tb.sim.run(p)
    tb.sim.run()
    assert switches == 2  # one switch per distinct function
    assert h.fired == [9]


def test_fn_switch_cache_avoids_recounting(gen):
    """Repeated calls to the same function hit the cached route (the
    paper's dynamic-hint minimization)."""
    tb = Testbed(n_nodes=2)

    class H:
        def Ping(self, msg):
            return msg

        def Fire(self, token):
            pass

    HatRpcServer(tb.node(0), gen, "Echo", H()).start()

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Echo")
        for _ in range(10):
            yield from stub.Ping("x")
        return stub._hatrpc.trans._fn_switches

    p = tb.sim.process(client())
    assert tb.sim.run(p) == 1


def test_trdma_read_serves_buffered_response(gen):
    tb = Testbed(n_nodes=2)

    class H:
        def Ping(self, msg):
            return msg.upper()

        def Fire(self, token):
            pass

    HatRpcServer(tb.node(0), gen, "Echo", H()).start()

    def client():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Echo")
        out = yield from stub.Ping("abc")
        trans = stub._hatrpc.trans
        # After a completed call the read buffer is fully consumed.
        assert trans.read(1024) == b""
        return out

    p = tb.sim.process(client())
    assert tb.sim.run(p) == "ABC"


def test_hinted_protocol_delegates_everything():
    """HintedProtocol is the binary protocol over its TRdma: the message
    header also names the call to the transport, everything else is
    TBinaryProtocol's own."""
    engine = SimpleNamespace(node=SimpleNamespace(sim=SimpleNamespace(now=0.0)))
    trdma = TRdma(engine)
    prot = HintedProtocol(trdma)
    assert isinstance(prot, TBinaryProtocol) and prot.trans is trdma
    prot.write_message_begin("DoIt", TMessageType.ONEWAY, 7)
    assert (trdma._current_fn, trdma._current_oneway,
            trdma._current_seqid) == ("DoIt", True, 7)
    prot.write_i32(42)
    reader = TBinaryProtocol(TMemoryBuffer(trdma._take()))
    assert reader.read_message_begin() == ("DoIt", TMessageType.ONEWAY, 7)
    assert reader.read_i32() == 42
