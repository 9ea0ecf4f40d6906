"""Thrift transports over the simulated network.

Interface contract (repository coroutine convention):

* ``write(data)`` buffers bytes for the current outbound message -- plain
  call, no simulated time.  Every buffering transport shares one *gather*
  buffer (:class:`TTransport`): chunks are kept by reference and joined once
  when the message is taken, so a 128 KiB ``binary`` field is copied once on
  its way out, not per ``+=`` and again per ``bytes(buf)``;
* ``flush()`` -- coroutine -- pushes the buffered message down the stack;
* ``ready()`` -- coroutine -- blocks until the next inbound message is
  buffered locally;
* ``read(n)`` / ``read_all(n)`` -- plain calls against the buffered inbound
  message (serializers are synchronous once a message has landed).

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
    "TBufferedTransport",
    "TFramedTransport",
    "TMemoryBuffer",
    "TServerSocket",
    "TSocket",
    "TTransport",
]


class TTransport:
    """Abstract transport; owns the outbound gather buffer."""

    def __init__(self) -> None:
        self._wchunks: List[bytes] = []

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
        self._wchunks.append(data if type(data) is bytes else bytes(data))

    def _take(self, prefix: Optional[struct.Struct] = None) -> bytes:
        """The outbound message as one ``bytes`` (led by its length packed
        with ``prefix`` when given), leaving the buffer empty."""
        chunks = self._wchunks
        if prefix is None:
            message = b"".join(chunks)
        else:
            message = b"".join((prefix.pack(sum(map(len, chunks))), *chunks))
        chunks.clear()
        return message

    def flush(self):
        """Coroutine: deliver the buffered outbound message."""
        raise NotImplementedError

    def ready(self):
        """Coroutine: buffer the next inbound message."""
        raise NotImplementedError

    def read(self, n: int) -> bytes:
        raise NotImplementedError

    def peek(self, n: int) -> bytes:
        """Up to ``n`` buffered inbound bytes WITHOUT consuming them
        (``b""`` where the transport cannot look ahead).  Used to read
        the optional frame header ahead of a Thrift message."""
        return b""

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
        self._rbuf = memoryview(bytes(value))
        self._rpos = 0

    def flush(self):
        return
        yield  # pragma: no cover

    def ready(self):
        return
        yield  # pragma: no cover

    def read(self, n: int) -> bytes:
        out = bytes(self._rbuf[self._rpos:self._rpos + n])
        self._rpos += len(out)
        return out

    def peek(self, n: int) -> bytes:
        return bytes(self._rbuf[self._rpos:self._rpos + n])

    def getvalue(self) -> bytes:
        return b"".join(self._wchunks)

    def reset_read(self, value: bytes) -> None:
        self._rbuf = memoryview(bytes(value))
        self._rpos = 0


class TSocket(TTransport):
    """Client socket over the simulated kernel TCP (IPoIB) stack.

    Byte-stream only: wrap it in TFramedTransport (or TBufferedTransport for
    write batching) for message semantics, as real non-blocking Thrift does.
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

    # Raw stream coroutines used by the framing layers.
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
        self._rbuf = b""
        self._rpos = 0

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
        self._rbuf = yield from self.inner.recv_exact(length)
        self._rpos = 0

    def read(self, n: int) -> bytes:
        out = self._rbuf[self._rpos:self._rpos + n]
        self._rpos += len(out)
        return out

    def peek(self, n: int) -> bytes:
        return bytes(self._rbuf[self._rpos:self._rpos + n])


class TBufferedTransport(TFramedTransport):
    """Write-coalescing transport without frame headers.

    Reads require the peer to send whole messages per flush (true for all
    RPC flows in this repository); each ``ready()`` pulls whatever the next
    flush delivered.  Provided for API parity with Apache Thrift; framed is
    what the servers use.
    """

    def flush(self):
        yield from self.inner.send(self._take())

    def ready(self):
        chunk = yield from self.inner.recv_exact(1)
        # Drain whatever else is already buffered without blocking again.
        more = self.inner.conn._rx
        rest = bytes(more)
        del more[:]
        self._rbuf = chunk + rest
        self._rpos = 0


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
