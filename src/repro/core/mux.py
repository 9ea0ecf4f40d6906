"""Connection multiplexing: many logical clients over a bounded QP pool.

Scaling client count by scaling QP count is how an RDMA service falls
over: every QP is a connection handshake, pinned ring memory, and -- for a
busy-polled server -- another spinner competing for cores.  A
:class:`MuxPool` caps all of that at ``size`` *pipelined* connections per
(remote node, service), however many logical clients the application
spawns: each :meth:`lease` hands out a :class:`MuxClient` bound to the
least-loaded pooled connection, and every call rides that connection's
in-flight window through the engine's asynchronous path.

Correctness hinges on two existing invariants rather than new machinery:

* stub serialization in :meth:`~repro.core.runtime.AsyncCaller.call_async`
  runs *synchronously* before the first simulator yield, so interleaved
  logical clients on one shared connection get unique Thrift seqids;
* responses are correlated by the frame header's ``seq`` field the
  pipelined engine already stamps on every request, so out-of-order
  completions find their caller whichever logical client posted first.

The pool does not retry across slots: rejection/retry semantics stay in
each slot's engine (one shared :class:`~repro.core.resilience.RetryBudget`
passed here bounds the *pool-wide* retry rate).
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.core.runtime import HatRpcClient

__all__ = ["MuxClient", "MuxPool"]


class MuxPool:
    """A bounded pool of pipelined connections shared by logical clients.

    Construct, ``yield from pool.connect(remote)``, then :meth:`lease` one
    :class:`MuxClient` per logical client.  Extra keyword arguments
    (``plan``, ``retry_policy``, ``retry_budget``, ``deadline``, ...) are
    passed to every underlying :class:`~repro.core.runtime.HatRpcClient`;
    pass ``pipeline=True`` or a windowed plan so the slots actually
    overlap calls.
    """

    def __init__(self, node, gen_module, service_name: str, size: int = 4,
                 **client_kw):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.node = node
        self.service_name = service_name
        self.size = size
        self._clients: List[HatRpcClient] = [
            HatRpcClient(node, gen_module, service_name, **client_kw)
            for _ in range(size)]
        self._leases = [0] * size         # live leases per slot
        self.leases_granted = 0
        self._connected = False
        reg = obs.current()
        if reg is not None:
            self._m_size = reg.gauge("mux.pool_size")
            self._m_logical = reg.gauge("mux.logical_clients")
            self._m_leases = reg.counter("mux.leases")
            self._m_size.set(size)
        else:
            self._m_size = None
            self._m_logical = None
            self._m_leases = None

    def connect(self, remote_node):
        """Coroutine: open every pooled connection."""
        for client in self._clients:
            yield from client.connect(remote_node)
        self._connected = True
        return self

    def lease(self) -> "MuxClient":
        """A logical client bound to the least-loaded pooled connection."""
        if not self._connected:
            raise RuntimeError("pool not connected")
        slot = min(range(self.size), key=lambda i: self._leases[i])
        self._leases[slot] += 1
        self.leases_granted += 1
        if self._m_leases is not None:
            self._m_leases.inc()
            self._m_logical.set(sum(self._leases))
        return MuxClient(self, slot)

    def _release(self, slot: int) -> None:
        if self._leases[slot] > 0:
            self._leases[slot] -= 1
        if self._m_logical is not None:
            self._m_logical.set(sum(self._leases))

    @property
    def engines(self):
        """The pooled engines (for fault-counter aggregation in tests)."""
        return [c.engine for c in self._clients]

    def close(self) -> None:
        self._connected = False
        for client in self._clients:
            client.close()


class MuxClient:
    """One logical client: the stub-level API over a pooled connection.

    ``call`` / ``call_async`` mirror the generated stub's methods by name;
    many MuxClients share one wire connection, so holding a handle across
    other clients' calls is the normal case, not a hazard.
    """

    def __init__(self, pool: MuxPool, slot: int):
        self._pool = pool
        self._slot = slot
        self._caller = pool._clients[slot].async_caller()
        self._released = False

    def call_async(self, method: str, *args):
        """Coroutine: post ``method(*args)``; returns a StubCallHandle."""
        if self._released:
            raise RuntimeError("lease already released")
        return (yield from self._caller.call_async(method, *args))

    def call(self, method: str, *args, timeout: Optional[float] = None):
        """Coroutine: blocking call via the shared pipelined connection."""
        handle = yield from self.call_async(method, *args)
        return (yield from handle.wait(timeout))

    def release(self) -> None:
        """Return the lease (idempotent); the pooled connection lives on."""
        if not self._released:
            self._released = True
            self._pool._release(self._slot)
