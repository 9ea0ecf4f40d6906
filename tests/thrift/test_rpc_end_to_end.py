"""End-to-end Thrift RPC over the simulated IPoIB TCP stack.

Uses a hand-rolled service (what the IDL compiler generates) to validate
the framed transport, the processor, the server and the exception paths.
"""

import pytest

from repro.testbed import Testbed
from repro.thrift import (
    TApplicationException,
    TBinaryProtocol,
    TClient,
    TFramedTransport,
    TMessageType,
    TProcessor,
    TServerSocket,
    TSocket,
    TThreadedServer,
    TType,
)


# -- a hand-rolled "Calc" service --------------------------------------------

class AddArgs:
    def __init__(self, a=0, b=0):
        self.a, self.b = a, b

    def write(self, oprot):
        oprot.write_struct_begin("add_args")
        oprot.write_field_begin("a", TType.I32, 1)
        oprot.write_i32(self.a)
        oprot.write_field_end()
        oprot.write_field_begin("b", TType.I32, 2)
        oprot.write_i32(self.b)
        oprot.write_field_end()
        oprot.write_field_stop()
        oprot.write_struct_end()

    def read(self, iprot):
        iprot.read_struct_begin()
        while True:
            _n, ftype, fid = iprot.read_field_begin()
            if ftype == TType.STOP:
                break
            if fid == 1:
                self.a = iprot.read_i32()
            elif fid == 2:
                self.b = iprot.read_i32()
            else:
                iprot.skip(ftype)
            iprot.read_field_end()
        iprot.read_struct_end()


class AddResult:
    def __init__(self, success=None):
        self.success = success

    def write(self, oprot):
        oprot.write_struct_begin("add_result")
        if self.success is not None:
            oprot.write_field_begin("success", TType.I32, 0)
            oprot.write_i32(self.success)
            oprot.write_field_end()
        oprot.write_field_stop()
        oprot.write_struct_end()

    def read(self, iprot):
        iprot.read_struct_begin()
        while True:
            _n, ftype, fid = iprot.read_field_begin()
            if ftype == TType.STOP:
                break
            if fid == 0:
                self.success = iprot.read_i32()
            else:
                iprot.skip(ftype)
            iprot.read_field_end()
        iprot.read_struct_end()


class CalcProcessor(TProcessor):
    def __init__(self, handler):
        super().__init__(handler)
        self._process_map["add"] = self._process_add

    def _process_add(self, seqid, prot):
        args = AddArgs()
        args.read(prot)
        prot.read_message_end()
        try:
            value = yield from self._invoke("add", args.a, args.b)
            result = AddResult(success=value)
            prot.write_message_begin("add", TMessageType.REPLY, seqid)
            result.write(prot)
            prot.write_message_end()
        except Exception as e:  # noqa: BLE001 - mapped to wire exception
            exc = TApplicationException(
                TApplicationException.INTERNAL_ERROR, str(e))
            prot.write_message_begin("add", TMessageType.EXCEPTION, seqid)
            exc.write(prot)
            prot.write_message_end()
        return True


class CalcClient(TClient):
    def add(self, a, b):
        yield from self._send("add", AddArgs(a, b))
        result = yield from self._recv("add", AddResult())
        return result.success


class CalcHandler:
    def add(self, a, b):
        if a == 666:
            raise ValueError("unlucky operand")
        return a + b


class SlowCalcHandler:
    """Generator handler charging simulated CPU per call."""

    def __init__(self, node, work=1e-5):
        self.node = node
        self.work = work

    def add(self, a, b):
        yield self.node.compute(self.work)
        return a + b


def start_server(tb, server_cls, handler=None, port=9090):
    handler = handler or CalcHandler()
    server = server_cls(CalcProcessor(handler),
                        TServerSocket(tb.node(1), port))
    server.serve()
    return server


def connect_client(tb, port=9090, node=0):
    trans = TFramedTransport(TSocket(tb.node(node), tb.node(1), port))
    yield from trans.open()
    return CalcClient(TBinaryProtocol(trans)), trans


@pytest.fixture
def tb():
    return Testbed(n_nodes=3)


@pytest.mark.parametrize("server_cls", [TThreadedServer])
def test_add_roundtrip(tb, server_cls):
    start_server(tb, server_cls)

    def client():
        c, trans = yield from connect_client(tb)
        total = 0
        for i in range(5):
            total += yield from c.add(i, 10 * i)
        trans.close()
        return total

    p = tb.sim.process(client())
    assert tb.sim.run(p) == sum(i + 10 * i for i in range(5))


def test_server_exception_propagates(tb):
    start_server(tb, TThreadedServer)

    def client():
        c, _ = yield from connect_client(tb)
        with pytest.raises(TApplicationException, match="unlucky"):
            yield from c.add(666, 1)
        # Connection still usable afterwards.
        return (yield from c.add(2, 3))

    p = tb.sim.process(client())
    assert tb.sim.run(p) == 5


def test_unknown_method_returns_application_exception(tb):
    start_server(tb, TThreadedServer)

    class BadClient(CalcClient):
        def bogus(self):
            yield from self._send("bogus", AddArgs(0, 0))
            yield from self._recv("bogus", AddResult())

    def client():
        trans = TFramedTransport(TSocket(tb.node(0), tb.node(1), 9090))
        yield from trans.open()
        c = BadClient(TBinaryProtocol(trans))
        try:
            yield from c.bogus()
        except TApplicationException as e:
            return e.type

    p = tb.sim.process(client())
    assert tb.sim.run(p) == TApplicationException.UNKNOWN_METHOD


def test_threaded_server_concurrent_clients(tb):
    server = start_server(tb, TThreadedServer,
                          handler=SlowCalcHandler(tb.node(1)))
    results = []

    def client(i, node):
        c, _ = yield from connect_client(tb, node=node)
        for k in range(4):
            r = yield from c.add(i, k)
            results.append(r == i + k)

    for i in range(6):
        tb.sim.process(client(i, node=0 if i % 2 else 2))
    tb.sim.run()
    assert len(results) == 24 and all(results)
    assert server.connections == 6


def test_rpc_latency_is_ipoib_scale(tb):
    """Vanilla Thrift over IPoIB: tens of microseconds per small RPC."""
    start_server(tb, TThreadedServer)

    def client():
        c, _ = yield from connect_client(tb)
        yield from c.add(1, 1)  # warmup
        t0 = tb.sim.now
        yield from c.add(2, 2)
        return tb.sim.now - t0

    p = tb.sim.process(client())
    rtt = tb.sim.run(p)
    assert 20e-6 < rtt < 300e-6
