"""Transport-layer edge cases."""

import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trdma import TRdma, _AsyncTRdma
from repro.testbed import Testbed
from repro.thrift import (
    TBufferedTransport,
    TFramedTransport,
    TMemoryBuffer,
    TMessageType,
    TServerSocket,
    TSocket,
    TTransportException,
)


@pytest.fixture
def tb():
    return Testbed(n_nodes=2)


def connected_pair(tb, port=7):
    """A framed client/server transport pair over TCP."""
    lst = TServerSocket(tb.node(1), port).listen()
    out = {}

    def server():
        sock = yield from lst.accept()
        out["server"] = TFramedTransport(sock)

    def client():
        trans = TFramedTransport(TSocket(tb.node(0), tb.node(1), port))
        yield from trans.open()
        out["client"] = trans

    tb.sim.process(server())
    tb.sim.process(client())
    tb.sim.run()
    return out["client"], out["server"]


def test_memory_buffer_read_write():
    buf = TMemoryBuffer()
    buf.write(b"hello ")
    buf.write(b"world")
    assert buf.getvalue() == b"hello world"
    rd = TMemoryBuffer(b"abcdef")
    assert rd.read(3) == b"abc"
    assert rd.read(10) == b"def"
    assert rd.read(1) == b""


def test_memory_buffer_read_all_underflow():
    rd = TMemoryBuffer(b"ab")
    with pytest.raises(TTransportException):
        rd.read_all(5)


def test_framed_roundtrip_preserves_message_boundaries(tb):
    client, server = connected_pair(tb)
    got = []

    def exchange():
        client.write(b"first")
        yield from client.flush()
        client.write(b"second message")
        yield from client.flush()
        for _ in range(2):
            yield from server.ready()
            got.append(server.read(1 << 20))

    tb.sim.run(tb.sim.process(exchange()))
    assert got == [b"first", b"second message"]


def test_framed_empty_message(tb):
    client, server = connected_pair(tb)
    got = {}

    def exchange():
        yield from client.flush()  # zero-length frame
        yield from server.ready()
        got["data"] = server.read(100)

    tb.sim.run(tb.sim.process(exchange()))
    assert got["data"] == b""


def test_framed_oversize_frame_rejected(tb):
    client, server = connected_pair(tb)

    def exchange():
        # Hand-craft a frame header advertising an absurd length.
        yield from client.inner.send(struct.pack("!I", 1 << 30))
        yield from server.ready()

    p = tb.sim.process(exchange())
    with pytest.raises(TTransportException, match="exceeds limit"):
        tb.sim.run(p)


def test_double_open_rejected(tb):
    tb.node(1).tcp.listen(9)

    def flow():
        trans = TFramedTransport(TSocket(tb.node(0), tb.node(1), 9))
        yield from trans.open()
        yield from trans.open()

    p = tb.sim.process(flow())
    with pytest.raises(TTransportException):
        tb.sim.run(p)


def test_send_after_close_rejected(tb):
    client, server = connected_pair(tb)

    def flow():
        client.close()
        client.write(b"late")
        yield from client.flush()

    p = tb.sim.process(flow())
    with pytest.raises(TTransportException):
        tb.sim.run(p)


def test_peer_close_surfaces_as_eof(tb):
    client, server = connected_pair(tb)
    outcome = {}

    def flow():
        client.close()
        try:
            yield from server.ready()
        except TTransportException as e:
            outcome["type"] = e.type

    tb.sim.run(tb.sim.process(flow()))
    # NOT_OPEN when the close is observed before the read starts,
    # END_OF_FILE when it lands mid-read.
    assert outcome["type"] in (TTransportException.END_OF_FILE,
                               TTransportException.NOT_OPEN)


def test_buffered_transport_roundtrip(tb):
    lst = TServerSocket(tb.node(1), 11).listen()
    got = {}

    def server():
        sock = yield from lst.accept()
        trans = TBufferedTransport(sock)
        yield from trans.ready()
        got["data"] = trans.read(1 << 20)

    def client():
        trans = TBufferedTransport(TSocket(tb.node(0), tb.node(1), 11))
        yield from trans.open()
        trans.write(b"coalesced ")
        trans.write(b"writes")
        yield from trans.flush()

    tb.sim.process(server())
    tb.sim.process(client())
    tb.sim.run()
    assert got["data"] == b"coalesced writes"


def test_server_socket_requires_listen(tb):
    srv = TServerSocket(tb.node(1), 13)

    def flow():
        yield from srv.accept()

    p = tb.sim.process(flow())
    with pytest.raises(TTransportException, match="not listening"):
        tb.sim.run(p)


# -- the outbound gather buffer, shared by all five buffering transports ------

class _Sink:
    """Stands in for the TSocket under a framing transport and for the
    HatRpcEngine under TRdma: records what each flush hands down."""

    def __init__(self):
        self.sent = []
        self.node = SimpleNamespace(sim=SimpleNamespace(now=0.0))

    def send(self, data):
        self.sent.append(data)
        return
        yield

    def call(self, fn, message, **_kw):
        self.sent.append(message)
        return b""
        yield


def _drain(gen):
    for _ in gen:
        raise AssertionError("flush into a _Sink never waits")


def _make_transports():
    """name -> (transport, take() -> the message a flush delivered)."""
    out = {}
    mem = TMemoryBuffer()
    out["memory"] = (mem, None)
    for name, cls in (("framed", TFramedTransport),
                      ("buffered", TBufferedTransport)):
        sink = _Sink()
        trans = cls(sink)

        def take(trans=trans, sink=sink, framed=name == "framed"):
            _drain(trans.flush())
            data = sink.sent.pop()
            if framed:
                assert data[:4] == struct.pack("!I", len(data) - 4)
                data = data[4:]
            return data
        out[name] = (trans, take)
    sink = _Sink()
    rdma = TRdma(sink)

    def take_rdma(rdma=rdma, sink=sink):
        _drain(rdma.flush())
        return sink.sent.pop()
    out["trdma"] = (rdma, take_rdma)
    arda = _AsyncTRdma(_Sink())

    def take_async(arda=arda):
        _drain(arda.flush())
        return arda.captured[1]
    out["async_trdma"] = (arda, take_async)
    for trans in (rdma, arda):
        trans.set_current_function("Echo", TMessageType.CALL, 1)
    return out


_chunk = st.tuples(st.binary(max_size=64),
                   st.sampled_from(["bytes", "bytearray", "memoryview"]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_chunk, st.just("take")), max_size=30))
def test_gather_buffer_yields_exactly_the_concatenation(ops):
    for name, (trans, take) in _make_transports().items():
        since_take, ever = [], []
        for op in ops + ["take"]:
            if op != "take":
                data, kind = op
                if kind == "bytes":
                    trans.write(data)
                else:
                    src = bytearray(data)
                    trans.write(src if kind == "bytearray"
                                else memoryview(src))
                    src[:] = b"\xff" * len(src)     # mutated after write
                since_take.append(data)
                ever.append(data)
            elif take is None:
                # TMemoryBuffer: getvalue() reads without consuming.
                assert trans.getvalue() == b"".join(ever), name
                assert trans.getvalue() == trans.getvalue()
            else:
                got = take()
                assert type(got) is bytes
                assert got == b"".join(since_take), name
                since_take.clear()
        if take is not None:
            assert take() == b""            # an empty message stays empty
