"""Thrift server lifecycle and processor edge cases."""

import pytest

from repro.testbed import Testbed
from repro.thrift import (
    TApplicationException,
    TBinaryProtocol,
    TFramedTransport,
    TMemoryBuffer,
    TMessageType,
    TMultiplexedProcessor,
    TProcessor,
    TServerSocket,
    TSocket,
    TThreadedServer,
    TType,
)
from repro.thrift.processor import TClient, TMultiplexedProtocol

from tests.thrift.test_rpc_end_to_end import (
    CalcClient,
    CalcHandler,
    CalcProcessor,
    connect_client,
    start_server,
)


@pytest.fixture
def tb():
    return Testbed(n_nodes=2)


def test_server_stop_refuses_new_connections(tb):
    server = start_server(tb, TThreadedServer)
    done = {}

    def first_client():
        c, trans = yield from connect_client(tb)
        done["before"] = yield from c.add(1, 2)
        trans.close()
        server.stop()

    def late_client():
        yield tb.sim.timeout(1.0)
        try:
            yield from connect_client(tb)
        except Exception as e:
            done["late"] = type(e).__name__

    tb.sim.process(first_client())
    tb.sim.process(late_client())
    tb.sim.run()
    assert done["before"] == 3
    assert "late" in done


def test_requests_counter(tb):
    server = start_server(tb, TThreadedServer)

    def client():
        c, _ = yield from connect_client(tb)
        for i in range(7):
            yield from c.add(i, i)

    tb.sim.run(tb.sim.process(client()))
    assert server.requests == 7


def test_multiplexed_unknown_service(tb):
    mux = TMultiplexedProcessor()
    mux.register("calc", CalcProcessor(CalcHandler()))
    TThreadedServer(mux, TServerSocket(tb.node(1), 9292)).serve()

    def client():
        trans = TFramedTransport(TSocket(tb.node(0), tb.node(1), 9292))
        yield from trans.open()
        c = CalcClient(TMultiplexedProtocol(TBinaryProtocol(trans), "wrong"))
        try:
            yield from c.add(1, 1)
        except TApplicationException as e:
            return e.type

    p = tb.sim.process(client())
    assert tb.sim.run(p) == TApplicationException.UNKNOWN_METHOD


def test_multiplexed_requires_prefix(tb):
    mux = TMultiplexedProcessor()
    mux.register("calc", CalcProcessor(CalcHandler()))
    TThreadedServer(mux, TServerSocket(tb.node(1), 9393)).serve()

    def client():
        trans = TFramedTransport(TSocket(tb.node(0), tb.node(1), 9393))
        yield from trans.open()
        c = CalcClient(TBinaryProtocol(trans))  # no service prefix
        try:
            yield from c.add(1, 1)
        except TApplicationException as e:
            return e.type

    p = tb.sim.process(client())
    assert tb.sim.run(p) == TApplicationException.INVALID_MESSAGE_TYPE


def test_multiplexed_double_register_rejected():
    mux = TMultiplexedProcessor()
    mux.register("calc", CalcProcessor(CalcHandler()))
    with pytest.raises(ValueError):
        mux.register("calc", CalcProcessor(CalcHandler()))


def test_bad_seqid_detected(tb):
    start_server(tb, TThreadedServer, port=9494)

    def client():
        c, _ = yield from connect_client(tb, port=9494)
        yield from c.add(1, 1)
        c._seqid = 99  # desynchronize on purpose
        try:
            # _recv checks the reply's seqid against ours
            yield from c._send("add", __import__(
                "tests.thrift.test_rpc_end_to_end",
                fromlist=["AddArgs"]).AddArgs(2, 2))
            c._seqid = 1234
            from tests.thrift.test_rpc_end_to_end import AddResult
            yield from c._recv("add", AddResult())
        except TApplicationException as e:
            return e.type

    p = tb.sim.process(client())
    assert tb.sim.run(p) == TApplicationException.BAD_SEQUENCE_ID


def test_thread_pool_validation(tb):
    from repro.thrift import TThreadPoolServer
    with pytest.raises(ValueError):
        TThreadPoolServer(CalcProcessor(CalcHandler()),
                          TServerSocket(tb.node(1), 9), workers=0)


def test_invoke_decides_plain_or_coroutine_once_per_handler_function():
    import inspect

    class Handler:
        def plain(self, x):
            return x + 1

        def coro(self, x):
            yield from ()
            return x + 2

        def hands_back(self, x):        # plain: merely *returns* a generator
            return self.coro(x)

    def run(name, *args):
        gen = proc._invoke(name, *args)
        try:
            while True:
                next(gen)
        except StopIteration as stop:
            return stop.value

    handler = Handler()
    proc = TProcessor(handler)
    for _ in range(2):                  # second pass is served from the cache
        assert run("plain", 1) == 2
        assert run("coro", 1) == 3
        assert inspect.isgenerator(run("hands_back", 1))    # handed back unrun
    assert set(proc._is_gen.values()) == {True, False} and len(proc._is_gen) == 3
    # A method swapped at run time is a different function: classified afresh.
    handler.plain = handler.coro
    assert run("plain", 1) == 3
    handler.coro = lambda x: x * 10
    assert run("coro", 1) == 10
