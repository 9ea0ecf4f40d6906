"""Thrift servers: simple, threaded, and thread-pool variants.

"Threads" are simulator processes (the coroutine convention); the thread
pool maps onto the node's CPU scheduler exactly the way OS threads map onto
cores in the real Apache Thrift servers the paper benchmarks.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro import frame, obs
from repro.core.overload import gated
from repro.obs import trace as obstrace
from repro.sim.core import Simulator
from repro.sim.sync import Store
from repro.thrift.errors import TTransportException
from repro.thrift.processor import TProcessor
from repro.thrift.protocol.binary import TBinaryProtocol
from repro.thrift.transport import TFramedTransport

__all__ = ["TServer", "TSimpleServer", "TThreadPoolServer", "TThreadedServer"]


class TServer:
    """Base server: accept loop + per-connection message loop."""

    def __init__(self, processor: TProcessor, server_transport,
                 protocol_factory: Callable = TBinaryProtocol,
                 transport_factory: Callable = TFramedTransport,
                 admission=None, priorities=None):
        self.processor = processor
        self.server_transport = server_transport
        self.protocol_factory = protocol_factory
        self.transport_factory = transport_factory
        #: optional AdmissionGate + {fn: priority} map: requests are gated
        #: BEFORE dispatch, and a refusal answers with a ``retry_after``
        #: frame header (never a silent drop or a timeout).
        self.admission = admission
        self.priorities = dict(priorities or {})
        self.sim: Simulator = server_transport.node.sim
        self.connections = 0
        self.requests = 0
        self._stopped = False
        # Instruments captured once (None = metrics disabled).
        reg = obs.current()
        if reg is not None:
            self._m_requests = reg.counter("thrift.requests")
            self._m_connections = reg.counter("thrift.connections")
        else:
            self._m_requests = None
            self._m_connections = None
        self._trc = obstrace.current()

    def serve(self) -> "TServer":
        """Start the accept loop (non-blocking; returns immediately)."""
        self.server_transport.listen()
        self.sim.process(self._accept_loop(), name="thrift-accept")
        return self

    def stop(self) -> None:
        self._stopped = True
        self.server_transport.close()

    def _accept_loop(self):
        raise NotImplementedError

    def _handle_connection(self, trans):
        """Coroutine: serve one connection until EOF."""
        prot = self.protocol_factory(trans)
        process = partial(self.processor.process, prot, prot)
        node_name = self.server_transport.node.name
        if self._m_connections is not None:
            self._m_connections.inc()

        def dispatch():
            # Assigned unconditionally so a previous request's context
            # never leaks onto an untraced one.
            trans.trace_ctx = obstrace.active(self.sim)
            if self.admission is None:
                return (yield from process())
            retry_after, replied = yield from gated(
                self.admission, self.priorities, trans.peek(128),
                trans.trace_ctx, self.sim, process)
            if retry_after is not None:
                # Rejected before dispatch: the unread message dies here
                # (the next ready() replaces the buffer) and a retry_after
                # header goes back in its place.
                trans.write(frame.pack(retry_after=retry_after))
                return True
            return replied

        def reply(replied):
            if replied:
                yield from trans.flush()

        while not self._stopped:
            t_poll = self.sim.now
            try:
                yield from trans.ready()
            except TTransportException:
                trans.close()
                return
            # A frame header (a TCP channel's carries a trace context at
            # most) leads the message: consume it, the processor reads on.
            head = trans.peek(frame.MAX_BYTES)
            header, message = frame.split(head)
            trans.read(len(head) - len(message))
            ctx = header.trace if self._trc is not None else None
            if not (yield from obstrace.serve_one(
                    self._trc, self.sim, node_name, "tcp", t_poll, ctx,
                    dispatch, reply, TTransportException)):
                trans.close()
                return
            self.requests += 1
            if self._m_requests is not None:
                self._m_requests.inc()


class TSimpleServer(TServer):
    """Serves one connection at a time (useful for tests)."""

    def _accept_loop(self):
        while not self._stopped:
            sock = yield from self.server_transport.accept()
            self.connections += 1
            yield from self._handle_connection(self.transport_factory(sock))


class TThreadedServer(TServer):
    """One simulator process per connection (thread-per-connection)."""

    def _accept_loop(self):
        while not self._stopped:
            sock = yield from self.server_transport.accept()
            self.connections += 1
            self.sim.process(
                self._handle_connection(self.transport_factory(sock)),
                name=f"thrift-conn-{self.connections}")


class TThreadPoolServer(TServer):
    """A fixed pool of worker processes draining an accept queue."""

    def __init__(self, processor, server_transport,
                 protocol_factory: Callable = TBinaryProtocol,
                 transport_factory: Callable = TFramedTransport,
                 workers: int = 8):
        super().__init__(processor, server_transport, protocol_factory,
                         transport_factory)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._queue: Optional[Store] = None

    def serve(self) -> "TThreadPoolServer":
        self._queue = Store(self.sim)
        for i in range(self.workers):
            self.sim.process(self._worker(), name=f"thrift-worker-{i}")
        return super().serve()

    def _accept_loop(self):
        while not self._stopped:
            sock = yield from self.server_transport.accept()
            self.connections += 1
            self._queue.put(sock)

    def _worker(self):
        while not self._stopped:
            sock = yield self._queue.get()
            yield from self._handle_connection(self.transport_factory(sock))
