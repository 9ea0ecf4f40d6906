"""Shared machinery for the RDMA RPC protocols.

Every protocol is a pair of classes:

* a client: ``Client(device, cfg)`` with coroutines ``connect(node,
  service_id)`` and ``call(request, resp_hint=...) -> bytes``;
* a server: ``Server(device, service_id, handler, cfg)`` whose ``start()``
  spawns the accept loop; one serve-loop process runs per connection (the
  per-connection server threads of a threaded Thrift server).

Connections are *single-outstanding-call*: exactly the contract of a
synchronous Thrift client.  Concurrency comes from many connections, as in
the paper's throughput benchmarks.

Control messages use one fixed 32-byte wire format (kind, seq, length,
addr, rkey) -- large enough for rendezvous metadata, small enough to ride in
any eager slot.
"""

from __future__ import annotations

import inspect
import struct
from functools import partial
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Type

from repro import frame, obs
from repro.obs import trace as obstrace
from repro.sim.units import KiB
from repro.verbs.cq import CQ, PollMode
from repro.verbs.device import Device, PD
from repro.verbs.errors import QPStateError, WCError
from repro.verbs import cm
from repro.verbs.qp import QP
from repro.verbs.types import WC, RecvWR, Sge, WCStatus

__all__ = [
    "CTRL",
    "HDR_BYTES",
    "ProtoConfig",
    "ProtocolError",
    "RecvRing",
    "RpcClient",
    "RpcServer",
    "get_protocol",
    "protocol_names",
    "register_protocol",
]


class ProtocolError(RuntimeError):
    """Protocol-level misuse or wire-state corruption."""


#: kind(u8) seq(u32) length(u32) addr(u64) rkey(u32) -> padded to 32 bytes.
CTRL = struct.Struct("<BIIQI")
HDR_BYTES = 32

# Control-message kinds.
K_EAGER = 1       # payload follows the header in the same slot
K_RTS = 2         # rendezvous request-to-send
K_CTS = 3         # rendezvous clear-to-send (addr/rkey of the target buffer)
K_FIN = 4         # rendezvous (read flavor) transfer finished
K_NOTIFY = 5      # direct-write notify (payload already WRITTEN)


def pack_ctrl(kind: int, seq: int, length: int, addr: int = 0,
              rkey: int = 0) -> bytes:
    return CTRL.pack(kind, seq, length, addr, rkey).ljust(HDR_BYTES, b"\0")


def unpack_ctrl(data: bytes):
    return CTRL.unpack_from(data)


@dataclass(frozen=True)
class ProtoConfig:
    """Knobs common to all protocols."""

    #: completion-polling discipline for every CQ wait on this endpoint
    poll_mode: PollMode = PollMode.BUSY
    #: largest message the connection must carry
    max_msg: int = 512 * KiB
    #: pre-posted receive-ring depth
    ring_slots: int = 64
    #: eager/rendezvous switch (Hybrid-EagerRNDV threshold, Section 4.3)
    eager_threshold: int = 4 * KiB
    #: whether the calling threads are bound to the NIC's NUMA node
    numa_local: bool = True
    #: first-READ size for RFP's speculative response fetch
    rfp_first_read: int = 4 * KiB
    #: in-flight window the connection is provisioned for: protocols with
    #: per-call wire slots (direct-write staging/inbuf, eager send slots)
    #: allocate ``window`` of them so overlapped requests never share a
    #: slot.  1 = classic single-outstanding geometry (the default; both
    #: peers must agree on the value).
    window: int = 1

    def with_(self, **kw) -> "ProtoConfig":
        return replace(self, **kw)


def check_wc(wc: WC) -> WC:
    if wc.status is not WCStatus.SUCCESS:
        raise WCError(wc.status)
    return wc


class RecvRing:
    """A receive ring registered once: slot *i* is bytes
    ``[i * slot_bytes, (i + 1) * slot_bytes)`` of one MR and is posted with
    ``wr_id=i``."""

    def __init__(self, pd: PD, qp: QP, slots: int, slot_bytes: int):
        self.qp = qp
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.mr = pd.reg_mr(slots * slot_bytes)

    def post(self, i: int):
        """Coroutine: (re-)post slot ``i``."""
        mr = self.mr
        yield from self.qp.post_recv(
            RecvWR(Sge(mr.addr + i * self.slot_bytes, self.slot_bytes,
                       mr.lkey), wr_id=i))

    def post_all(self):
        for i in range(self.slots):
            yield from self.post(i)

    def read(self, i: int, length: int, offset: int = 0) -> bytes:
        return self.mr.read(length, offset=i * self.slot_bytes + offset)


class RpcClient:
    """Base class for protocol clients."""

    #: wire-protocol name, stamped by :func:`register_protocol`
    proto_name = "?"

    #: True for protocols whose send/receive halves are independent enough
    #: to overlap multiple calls on one connection (stateless per-call wire
    #: slots, no single-valued rendezvous handshake).  The engine's
    #: pipelined path only splits post/recv on these; everything else runs
    #: call-at-a-time under the classic single-outstanding contract.
    supports_pipelining = False

    def __init__(self, device: Device, cfg: Optional[ProtoConfig] = None):
        self.device = device
        self.sim = device.sim
        self.cfg = cfg or ProtoConfig()
        self.pd = device.alloc_pd()
        self._in_call = False
        self._act = None        # ActiveCall of the in-flight traced RPC
        self.calls = 0
        # Per-protocol instruments, captured once (None = metrics disabled;
        # the call() hot path then pays a single attribute check).
        reg = obs.current()
        if reg is not None:
            name = self.proto_name
            self._m_ops = reg.counter(f"proto.{name}.ops")
            self._m_req_bytes = reg.counter(f"proto.{name}.req_bytes")
            self._m_resp_bytes = reg.counter(f"proto.{name}.resp_bytes")
            self._m_doorbells = reg.counter(f"proto.{name}.doorbells")
            self._m_latency = reg.histogram(f"proto.{name}.latency")
        else:
            self._m_ops = None
            self._m_req_bytes = None
            self._m_resp_bytes = None
            self._m_doorbells = None
            self._m_latency = None

    # subclasses implement:
    def _setup_blob(self) -> bytes:
        """Local resources to advertise during the CM handshake."""
        raise NotImplementedError

    def _finish_setup(self, peer_blob: bytes) -> None:
        raise NotImplementedError

    def _call(self, request: bytes, resp_hint: int):
        raise NotImplementedError

    # pipelining-capable subclasses implement (split halves of _call):
    def _post(self, request: bytes):
        raise ProtocolError(
            f"{self.proto_name} cannot pipeline (no split post/recv)")
        yield  # pragma: no cover

    def _recv_one(self):
        raise ProtocolError(
            f"{self.proto_name} cannot pipeline (no split post/recv)")
        yield  # pragma: no cover

    # common paths:
    def connect(self, remote_node, service_id: int):
        """Coroutine: establish the connection and exchange buffer metadata."""
        self.scq = self.device.create_cq()
        self.rcq = self.device.create_cq()
        self.qp = self.device.create_qp(self.pd, self.scq, self.rcq)
        blob = self._setup_blob()
        peer_blob = yield from cm.connect(self.qp, remote_node, service_id,
                                          private_data=blob)
        self._finish_setup(peer_blob)
        yield from self._post_setup()
        return self

    def _post_setup(self):
        """Coroutine hook: pre-post receive rings etc. after the handshake."""
        return
        yield  # pragma: no cover

    def call(self, request: bytes, resp_hint: int = 4 * KiB, trace=None):
        """Coroutine: one RPC; returns the response bytes.

        ``trace`` is the engine's in-flight
        :class:`~repro.obs.trace.ActiveCall` (or None): the protocol
        brackets its send/receive halves into "post"/"complete" stage
        spans on it.
        """
        if self._in_call:
            raise ProtocolError(
                "connection already has an outstanding call (protocol "
                "connections are single-outstanding; use more connections "
                "for concurrency)")
        if len(request) > self.cfg.max_msg:
            raise ProtocolError(
                f"request of {len(request)} bytes exceeds max_msg "
                f"{self.cfg.max_msg}")
        self._in_call = True
        self._act = trace
        if self._m_ops is not None:
            t_start = self.sim.now
            qp = getattr(self, "qp", None)
            db_start = qp.doorbells if qp is not None else 0
        try:
            resp = yield from self._call(request, resp_hint)
        finally:
            self._in_call = False
            self._act = None
        self.calls += 1
        if self._m_ops is not None:
            self._m_ops.inc()
            self._m_req_bytes.inc(len(request))
            self._m_resp_bytes.inc(len(resp))
            self._m_latency.record(self.sim.now - t_start)
            if qp is not None:
                self._m_doorbells.inc(qp.doorbells - db_start)
        return resp

    def post(self, request: bytes):
        """Coroutine: put one request on the wire without waiting for its
        response (the pipelined send half; pair with :meth:`recv`)."""
        if len(request) > self.cfg.max_msg:
            raise ProtocolError(
                f"request of {len(request)} bytes exceeds max_msg "
                f"{self.cfg.max_msg}")
        yield from self._post(request)
        self.calls += 1
        if self._m_ops is not None:
            self._m_ops.inc()
            self._m_req_bytes.inc(len(request))

    def recv(self):
        """Coroutine: the next response off the wire, in arrival order --
        the caller correlates it (the pipelined receive half)."""
        resp = yield from self._recv_one()
        if self._m_resp_bytes is not None:
            self._m_resp_bytes.inc(len(resp))
        return resp

    def _wait(self, cq: CQ, max_wc: int = 16):
        return (yield from cq.wait(self.cfg.poll_mode, max_wc))

    def _staged(self, name: str, gen, **attrs):
        """Coroutine: run ``gen``, bracketing it into a trace stage span
        when a traced call is in flight (no-op otherwise)."""
        act = self._act
        if act is None:
            return (yield from gen)
        t0 = self.sim.now
        result = yield from gen
        act.stage(name, t0, self.sim.now, **attrs)
        return result

    def abort(self) -> None:
        """Hard-close the connection: error the QP (and the peer's).

        The peer-side flush unblocks the server's serve loop, which then
        tears the connection down -- the RST of this transport.  Safe to
        call repeatedly or on a never-connected client.
        """
        qp = getattr(self, "qp", None)
        if qp is not None:
            qp.to_error()
            if qp.peer is not None:
                qp.peer.to_error()


class RpcServer:
    """Base class for protocol servers.

    ``handler`` is either a plain callable ``bytes -> bytes`` or a generator
    function (coroutine) for handlers that consume simulated time (e.g. the
    checksum work of the ATB mix benchmark, or HatKV's LMDB calls).
    """

    endpoint_cls: Type = None  # type: ignore[assignment]

    #: wire-protocol name, stamped by :func:`register_protocol`
    proto_name = "?"

    def __init__(self, device: Device, service_id: int,
                 handler: Callable, cfg: Optional[ProtoConfig] = None):
        self.device = device
        self.sim = device.sim
        self.service_id = service_id
        self.handler = handler
        self._dispatch = handler if inspect.isgeneratorfunction(handler) \
            else self._lifted
        self.cfg = cfg or ProtoConfig()
        self.pd = device.alloc_pd()
        self.listener = None
        self.connections = 0
        self.requests = 0
        self.teardowns = 0
        self._stopped = False
        reg = obs.current()
        self._m_requests = (reg.counter(f"proto.{self.proto_name}.server_requests")
                            if reg is not None else None)
        self._trc = obstrace.current()

    def start(self) -> "RpcServer":
        self.listener = cm.listen(self.device, self.service_id)
        self.sim.process(self._accept_loop(), name=f"accept-{self.service_id}")
        return self

    def stop(self) -> None:
        self._stopped = True
        if self.listener is not None:
            self.listener.close()

    def _accept_loop(self):
        while not self._stopped:
            req = yield self.listener.accept()
            endpoint = self._make_endpoint(req)
            yield from self._accept(req, endpoint)
            self.connections += 1
            self.sim.process(self._serve_loop(endpoint),
                             name=f"serve-{self.service_id}-{self.connections}")

    # subclasses implement:
    def _make_endpoint(self, conn_req):
        raise NotImplementedError

    def _accept(self, conn_req, endpoint):
        raise NotImplementedError

    def _recv(self, endpoint):
        raise NotImplementedError

    def _reply(self, endpoint, resp: bytes):
        raise NotImplementedError

    #: "the connection is dead" -- an error completion or an operation on an
    #: already-flushed QP.  Local misuse (MemoryAccessError, oversize
    #: responses) deliberately stays loud instead of reading as a dead peer.
    _DEAD_CONN = (WCError, QPStateError)

    def _serve_loop(self, endpoint):
        send = partial(self._reply, endpoint)

        def on_dead():
            self.teardowns += 1
            self._teardown(endpoint)

        while True:
            t_poll = self.sim.now
            try:
                request = yield from self._recv(endpoint)
            except (ProtocolError, *self._DEAD_CONN):
                # Tear it down server-side so a client reconnect starts clean.
                on_dead()
                return
            if not (yield from self._serve(request, t_poll, send, on_dead)):
                return

    def _serve(self, request: bytes, t_poll: float, send, on_dead):
        """Coroutine: hand ``request`` to the handler, whole -- this layer
        only *reads* the frame header's trace context, for the server span
        -- and ``send(resp)``.  Every request answered is counted; False
        when the connection died on the way (``on_dead()`` has run)."""
        ctx = frame.split(request)[0].trace if self._trc is not None \
            else None

        def reply(resp):
            yield from send(resp)
            return {"nbytes": len(resp)}

        if (yield from obstrace.serve_one(
                self._trc, self.sim, self.device.node.name, self.proto_name,
                t_poll, ctx, partial(self._dispatch, request), reply,
                self._DEAD_CONN)):
            self.requests += 1
            if self._m_requests is not None:
                self._m_requests.inc()
            return True
        on_dead()
        return False

    def _teardown(self, endpoint) -> None:
        """Release a dead connection's QP (idempotent)."""
        qp = getattr(endpoint, "qp", None)
        if qp is not None:
            qp.to_error()
            if qp.peer is not None:
                qp.peer.to_error()

    def _lifted(self, request: bytes):
        """A plain ``bytes -> bytes`` handler as the coroutine it stands
        in for."""
        return self.handler(request)
        yield  # pragma: no cover

    def _wait(self, cq: CQ, max_wc: int = 16):
        return (yield from cq.wait(self.cfg.poll_mode, max_wc))


_REGISTRY: Dict[str, tuple[Type[RpcClient], Type[RpcServer]]] = {}


def register_protocol(name: str, client_cls: Type[RpcClient],
                      server_cls: Type[RpcServer]) -> None:
    if name in _REGISTRY:
        raise ValueError(f"protocol {name!r} already registered")
    client_cls.proto_name = name
    server_cls.proto_name = name
    _REGISTRY[name] = (client_cls, server_cls)


def get_protocol(name: str) -> tuple[Type[RpcClient], Type[RpcServer]]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(_REGISTRY)}") from None


def protocol_names() -> list[str]:
    return sorted(_REGISTRY)
