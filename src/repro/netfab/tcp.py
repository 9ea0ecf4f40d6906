"""Kernel TCP over IPoIB: the byte-stream transport under vanilla Thrift.

This is the baseline of the paper's evaluations ("Thrift over IPoIB").
IPoIB runs the whole kernel network stack over the InfiniBand link, so
compared with verbs it pays:

* two user/kernel data copies per message (charged as CPU memcpy work),
* a syscall per send/recv (CPU),
* softirq + wakeup latency on the receive path,
* a reduced effective rate (IPoIB on EDR typically achieves well under half
  of line rate; we default to 40 Gbps out of 100).

The API is deliberately socket-shaped (connect/listen/accept, send/recv of
byte strings) because Thrift's ``TSocket`` wraps it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.netfab.fabric import Fabric, LinkDownError
from repro.sim.cluster import Node
from repro.sim.core import Simulator
from repro.sim.sync import Gate, Store
from repro.sim.units import Gbps, us

__all__ = ["TcpConn", "TcpListener", "TcpParams", "TcpStack"]


class TcpError(ConnectionError):
    """Connection-level failure (refused port, closed peer)."""


@dataclass(frozen=True)
class TcpParams:
    """IPoIB kernel-stack cost constants.

    Calibrated against published IPoIB-vs-native comparisons (e.g. the
    Hadoop-RPC-over-IB study [Lu et al., ICPP'13] and the paper's own Fig. 17
    baseline): tens-of-microsecond small-message RPC latency and <50% of
    link bandwidth.
    """

    effective_rate: float = 40 * Gbps   # achievable IPoIB goodput
    mtu: int = 65520                    # IPoIB connected-mode MTU
    syscall_cpu: float = 1.5 * us       # per send()/recv() syscall
    stack_cpu_per_seg: float = 2.0 * us # TCP/IP + IPoIB processing per segment
    copy_rate: float = 8e9              # user<->kernel copy, bytes/s of CPU
    rx_wakeup_latency: float = 8.0 * us # softirq + scheduler wakeup
    connect_setup: float = 60 * us      # 3-way handshake + socket setup


class TcpConn:
    """One direction-pair endpoint of an established connection."""

    def __init__(self, stack: "TcpStack", peer_stack: "TcpStack"):
        self.stack = stack
        self.peer_stack = peer_stack
        self.sim = stack.sim
        self._rx = bytearray()
        self._rx_gate = Gate(self.sim)
        self._closed = False
        self.peer: "TcpConn" = None  # type: ignore[assignment]
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- data path ----------------------------------------------------------
    def send(self, data: bytes):
        """Coroutine: blocking send of the whole buffer."""
        if self._closed:
            raise TcpError("send on closed connection")
        p = self.stack.params
        cpu = self.stack.node.cpu
        sim = self.sim
        # Syscall + copy into kernel buffers.
        yield cpu.compute(p.syscall_cpu + len(data) / p.copy_rate)
        view = memoryview(bytes(data))
        off = 0
        while off < len(view):
            seg = view[off:off + p.mtu]
            yield cpu.compute(p.stack_cpu_per_seg)
            try:
                yield from self.stack.fabric.transmit(
                    self.stack.node, self.peer_stack.node, len(seg),
                    rate_cap=p.effective_rate)
            except LinkDownError as e:
                # The kernel gives up after its retry budget: the connection
                # resets on both ends.
                self.close()
                raise TcpError(f"connection reset: {e}") from e
            self.peer._deliver(bytes(seg))
            off += len(seg)
        self.bytes_sent += len(data)

    def _deliver(self, segment: bytes) -> None:
        if self._closed:
            return
        self._rx += segment
        self.bytes_received += len(segment)
        self._rx_gate.fire()

    def recv(self, max_bytes: int):
        """Coroutine: blocking read of up to ``max_bytes`` (at least 1 byte).

        Returns ``b''`` when the peer has closed and the buffer is drained.
        """
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        p = self.stack.params
        cpu = self.stack.node.cpu
        while not self._rx:
            if self._closed:
                return b""
            yield self._rx_gate.wait()
            # Woken out of a blocking read: softirq -> scheduler latency.
            yield self.sim.timeout(p.rx_wakeup_latency)
        data = bytes(self._rx[:max_bytes])
        del self._rx[:len(data)]
        # Syscall + kernel->user copy.
        yield cpu.compute(p.syscall_cpu + len(data) / p.copy_rate)
        return data

    def recv_exact(self, nbytes: int):
        """Coroutine: read exactly ``nbytes`` (raises TcpError on EOF)."""
        chunks = []
        got = 0
        while got < nbytes:
            chunk = yield from self.recv(nbytes - got)
            if not chunk:
                raise TcpError(f"peer closed after {got}/{nbytes} bytes")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._drop_from_registry()
        if self.peer is not None and not self.peer._closed:
            self.peer._closed = True
            self.peer._drop_from_registry()
            self.peer._rx_gate.fire()

    def _drop_from_registry(self) -> None:
        try:
            self.stack._conns.remove(self)
        except ValueError:
            pass

    @property
    def closed(self) -> bool:
        return self._closed


class TcpListener:
    """Accept queue for one listening port."""

    def __init__(self, stack: "TcpStack", port: int):
        self.stack = stack
        self.port = port
        self._backlog: Store = Store(stack.sim)

    def accept(self):
        """Event: fires with the server-side :class:`TcpConn`."""
        return self._backlog.get()

    def close(self) -> None:
        self.stack._listeners.pop(self.port, None)


class TcpStack:
    """Per-node kernel TCP/IPoIB stack."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 params: Optional[TcpParams] = None):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.params = params or TcpParams()
        self._listeners: Dict[int, TcpListener] = {}
        self._conns: list[TcpConn] = []
        node.tcp = self
        node.on_crash(self.fail)

    def fail(self) -> None:
        """Node crash: reset every live connection and stop listening.

        Peers see EOF (recv returns ``b""``), which the Thrift transport
        surfaces as END_OF_FILE -- exactly what a fail-stop peer looks like
        over real TCP once the retry budget lapses.  Idempotent.
        """
        for conn in list(self._conns):
            conn.close()
        self._conns.clear()
        self._listeners.clear()

    def listen(self, port: int) -> TcpListener:
        if port in self._listeners:
            raise TcpError(f"port {port} already listening on {self.node.name}")
        lst = TcpListener(self, port)
        self._listeners[port] = lst
        return lst

    def connect(self, remote: Node, port: int):
        """Coroutine: establish a connection; returns the client TcpConn."""
        peer_stack: TcpStack = remote.tcp
        if peer_stack is None:
            raise TcpError(f"no TCP stack on {remote.name}")
        if not getattr(remote, "up", True):
            raise TcpError(f"no route to host: {remote.name} is down")
        lst = peer_stack._listeners.get(port)
        if lst is None:
            raise TcpError(f"connection refused: {remote.name}:{port}")
        yield self.sim.timeout(self.params.connect_setup)
        client = TcpConn(self, peer_stack)
        server = TcpConn(peer_stack, self)
        client.peer = server
        server.peer = client
        self._conns.append(client)
        peer_stack._conns.append(server)
        lst._backlog.put(server)
        return client
