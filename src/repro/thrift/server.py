"""The Thrift server: one simulator process per connection.

"Threads" are simulator processes (the coroutine convention); they map onto
the node's CPU scheduler the way OS threads map onto cores in the real
Apache Thrift ``TThreadedServer`` the paper benchmarks.  Every connection
speaks ``TBinaryProtocol`` over ``TFramedTransport``.
"""

from __future__ import annotations

from functools import partial

from repro import frame, obs
from repro.obs import trace as obstrace
from repro.overload import gated
from repro.sim.core import Simulator
from repro.thrift.errors import MALFORMED, TTransportException
from repro.thrift.processor import TProcessor
from repro.thrift.protocol.binary import TBinaryProtocol
from repro.thrift.transport import TFramedTransport

__all__ = ["TThreadedServer"]


class TThreadedServer:
    """Accept loop + one message-loop process per connection
    (thread-per-connection)."""

    def __init__(self, processor: TProcessor, server_transport,
                 admission=None, priorities=None):
        self.processor = processor
        self.server_transport = server_transport
        #: optional AdmissionGate + {fn: priority} map: requests are gated
        #: BEFORE dispatch, and a refusal answers with a ``retry_after``
        #: frame header (never a silent drop or a timeout).
        self.admission = admission
        self.priorities = dict(priorities or {})
        self.sim: Simulator = server_transport.node.sim
        self.connections = 0
        self.requests = 0
        #: connections this server closed: the peer went away, or sent a
        #: request that is not a readable message
        self.teardowns = 0
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

    def serve(self) -> "TThreadedServer":
        """Start the accept loop (non-blocking; returns immediately)."""
        self.server_transport.listen()
        self.sim.process(self._accept_loop(), name="thrift-accept")
        return self

    def stop(self) -> None:
        self._stopped = True
        self.server_transport.close()

    def _accept_loop(self):
        while not self._stopped:
            sock = yield from self.server_transport.accept()
            self.connections += 1
            self.sim.process(
                self._handle_connection(TFramedTransport(sock)),
                name=f"thrift-conn-{self.connections}")

    def _handle_connection(self, trans):
        """Coroutine: serve one connection until EOF."""
        process = partial(self.processor.process, TBinaryProtocol(trans))
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
                self._teardown(trans)
                return
            # A frame header (a TCP channel's carries a trace context at
            # most) leads the message: consume it, the processor reads on.
            head = trans.peek(frame.MAX_BYTES)
            header, message = frame.split(head)
            trans.read(len(head) - len(message))
            ctx = header.trace if self._trc is not None else None
            # A transport failure on the way, or a request that is not a
            # readable message, ends this connection only.
            if not (yield from obstrace.serve_one(
                    self._trc, self.sim, node_name, "tcp", t_poll, ctx,
                    dispatch(), reply, MALFORMED)):
                self._teardown(trans)
                return
            self.requests += 1
            if self._m_requests is not None:
                self._m_requests.inc()

    def _teardown(self, trans) -> None:
        self.teardowns += 1
        trans.close()
