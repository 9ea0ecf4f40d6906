"""Thrift transports over the simulated network.

Interface contract (repository coroutine convention):

* ``write(data)`` buffers bytes for the current outbound message -- plain
  call, no simulated time.  Every buffering transport (``TMemoryBuffer``,
  ``TFramedTransport`` and :mod:`repro.core`'s ``TRdma``) shares one *gather*
  buffer (:class:`TTransport`): chunks are kept by reference and joined once
  when the message is taken, so a 128 KiB ``binary`` field is copied once on
  its way out, not per ``+=`` and again per ``bytes(buf)``;
* ``flush()`` -- coroutine -- pushes the buffered message down the stack;
* ``ready()`` -- coroutine -- blocks until the next inbound message is
  buffered locally;
* ``read(n)`` / ``read_all(n)`` -- plain calls against the buffered inbound
  message (serializers are synchronous once a message has landed).  A
  transport that holds an inbound message keeps it as ``rbuf`` (``bytes``)
  with ``rpos`` the offset of the next unread byte: that ``(buffer,
  offset)`` pair is what ``read`` consumes and what the compiled binary
  decoders of :mod:`repro.idl` walk with ``unpack_from``, advancing
  ``rpos`` past what they decoded.  A client's ``TClient._recv`` drops it
  once the reply is read: a reply is not kept until the next one lands.

Message-boundary framing is therefore part of the transport, as in Apache
Thrift's non-blocking servers (TFramedTransport is mandatory there too).
"""

from __future__ import annotations

import struct
from typing import List, Optional

from repro.netfab.tcp import TcpConn, TcpError, TcpListener
from repro.sim.cluster import Node
from repro.thrift.errors import TTransportException

__all__ = [
    "TFramedTransport",
    "TMemoryBuffer",
    "TServerSocket",
    "TSocket",
    "TTransport",
]


class TTransport:
    """Abstract transport; owns the outbound gather buffer (``wchunks``)
    and the inbound message (``rbuf`` read from offset ``rpos``)."""

    def __init__(self) -> None:
        #: chunks of the outbound message, by reference; the compiled binary
        #: encoders append to it directly (bytes only -- see ``write``)
        self.wchunks: List[bytes] = []
        self.rbuf = b""
        self.rpos = 0

    def is_open(self) -> bool:
        return True

    def open(self):
        """Coroutine: establish the transport."""
        return
        yield  # pragma: no cover

    def close(self) -> None:
        pass

    def write(self, data: bytes) -> None:
        # A chunk that is not exactly ``bytes`` (bytearray, memoryview) is
        # snapshotted: the caller may reuse it before the message is taken.
        self.wchunks.append(data if type(data) is bytes else bytes(data))

    def _take(self, prefix: Optional[struct.Struct] = None) -> bytes:
        """The outbound message as one ``bytes`` (led by its length packed
        with ``prefix`` when given), leaving the buffer empty."""
        chunks = self.wchunks
        if prefix is None:
            message = b"".join(chunks)
        else:
            message = b"".join((prefix.pack(sum(map(len, chunks))), *chunks))
        chunks.clear()
        return message

    def _land(self, message: bytes) -> None:
        """Make ``message`` the inbound message, read from its start."""
        self.rbuf = message
        self.rpos = 0

    def flush(self):
        """Coroutine: deliver the buffered outbound message."""
        raise NotImplementedError

    def ready(self):
        """Coroutine: buffer the next inbound message."""
        raise NotImplementedError

    def read(self, n: int) -> bytes:
        pos = self.rpos
        out = self.rbuf[pos:pos + n]
        self.rpos = pos + len(out)
        return out

    def peek(self, n: int) -> bytes:
        """Up to ``n`` buffered inbound bytes WITHOUT consuming them.  Used
        to read the optional frame header ahead of a Thrift message."""
        return self.rbuf[self.rpos:self.rpos + n]

    def read_all(self, n: int) -> bytes:
        out = self.read(n)
        if len(out) < n:
            raise TTransportException(
                TTransportException.END_OF_FILE,
                f"wanted {n} bytes, transport had {len(out)}")
        return out


class TMemoryBuffer(TTransport):
    """In-memory transport for (de)serialization and tests."""

    def __init__(self, value: bytes = b""):
        super().__init__()
        # ``bytes(value)`` is ``value`` itself when it already is bytes, and
        # a snapshot of a mutable buffer otherwise.
        self.rbuf = bytes(value)

    def flush(self):
        return
        yield  # pragma: no cover

    def ready(self):
        return
        yield  # pragma: no cover

    def getvalue(self) -> bytes:
        return b"".join(self.wchunks)


class TSocket(TTransport):
    """Client socket over the simulated kernel TCP (IPoIB) stack.

    Byte-stream only: wrap it in TFramedTransport for message semantics, as
    real non-blocking Thrift does.
    """

    def __init__(self, node: Node, remote: Node, port: int,
                 conn: Optional[TcpConn] = None):
        self.node = node
        self.remote = remote
        self.port = port
        self.conn = conn

    def is_open(self) -> bool:
        return self.conn is not None and not self.conn.closed

    def open(self):
        if self.is_open():
            raise TTransportException(TTransportException.ALREADY_OPEN,
                                      "socket already open")
        try:
            self.conn = yield from self.node.tcp.connect(self.remote, self.port)
        except TcpError as e:
            raise TTransportException(TTransportException.NOT_OPEN, str(e))

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def write(self, data: bytes) -> None:
        raise NotImplementedError(
            "TSocket is a byte stream; wrap it in TFramedTransport")

    def read(self, n: int) -> bytes:
        raise NotImplementedError(
            "TSocket is a byte stream; wrap it in TFramedTransport")

    # Raw stream coroutines used by the framing layer.
    def send(self, data: bytes):
        if not self.is_open():
            raise TTransportException(TTransportException.NOT_OPEN,
                                      "send on closed socket")
        try:
            yield from self.conn.send(data)
        except TcpError as e:
            raise TTransportException(TTransportException.NOT_OPEN, str(e))

    def recv_exact(self, n: int):
        if not self.is_open():
            raise TTransportException(TTransportException.NOT_OPEN,
                                      "recv on closed socket")
        try:
            return (yield from self.conn.recv_exact(n))
        except TcpError as e:
            raise TTransportException(TTransportException.END_OF_FILE, str(e))


class TFramedTransport(TTransport):
    """Length-prefixed framing over a byte-stream transport (TSocket)."""

    _LEN = struct.Struct("!I")
    MAX_FRAME = 64 * 1024 * 1024

    def __init__(self, inner: TSocket):
        super().__init__()
        self.inner = inner

    def is_open(self) -> bool:
        return self.inner.is_open()

    def open(self):
        yield from self.inner.open()

    def close(self) -> None:
        self.inner.close()

    def flush(self):
        yield from self.inner.send(self._take(self._LEN))

    def ready(self):
        hdr = yield from self.inner.recv_exact(4)
        (length,) = self._LEN.unpack(hdr)
        if length > self.MAX_FRAME:
            raise TTransportException(TTransportException.UNKNOWN,
                                      f"frame of {length} bytes exceeds limit")
        self._land((yield from self.inner.recv_exact(length)))


class TServerSocket:
    """Listening socket; ``accept()`` yields a connected TSocket."""

    def __init__(self, node: Node, port: int):
        self.node = node
        self.port = port
        self._listener: Optional[TcpListener] = None

    def listen(self) -> "TServerSocket":
        self._listener = self.node.tcp.listen(self.port)
        return self

    def accept(self):
        """Coroutine: next inbound connection as a TSocket."""
        if self._listener is None:
            raise TTransportException(TTransportException.NOT_OPEN,
                                      "server socket not listening")
        conn = yield self._listener.accept()
        return TSocket(self.node, conn.peer_stack.node, self.port, conn=conn)

    def close(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
