"""Shared machinery for the RDMA RPC protocols.

A wire protocol is **one registry row** (:class:`ProtocolRow`): a name, the
endpoint class of each peer, the parameters both endpoints are built from,
and whether calls may overlap.  An endpoint class implements, over one QP,
``blob()`` (local resources to advertise in the CM handshake),
``set_peer(blob)`` (the peer's), ``setup()`` (coroutine: pre-post
receives), ``send_msg(data)`` and ``recv_msg()`` (coroutines: one message
out / the next one in).  Everything else is written once:

* the client, :class:`RpcClient`: coroutines ``connect(node, service_id)``
  and ``call(request) -> bytes``;
* the server, :class:`RpcServer`, whose ``start()`` spawns the accept loop;
  one serve-loop process runs per connection (the per-connection server
  threads of a threaded Thrift server);
* the receive ring, :class:`RecvRing`: one MR a QP's or an SRQ's receive
  queue is bound to, its slots (re-)posted as slot numbers, no objects.

Both peers build their endpoint from the *same* row, so slot sizes, eager
threshold, rendezvous/notify flavor and READ count agree by construction.

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
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, Mapping, Optional

from repro import frame, obs
from repro.obs import trace as obstrace
from repro.sim.units import KiB
from repro.thrift.errors import MALFORMED
from repro.verbs.cq import PollMode
from repro.verbs.device import Device, PD
from repro.verbs.errors import QPStateError, WCError
from repro.verbs import cm
from repro.verbs.qp import QP
from repro.verbs.types import WC, WCStatus

__all__ = [
    "CTRL",
    "HDR_BYTES",
    "ProtoConfig",
    "ProtocolError",
    "ProtocolRow",
    "RecvRing",
    "RpcClient",
    "RpcServer",
    "check_length",
    "get_protocol",
    "protocol_names",
    "register_protocol",
]


class ProtocolError(RuntimeError):
    """Protocol-level misuse or wire-state corruption."""


#: kind(u8) seq(u32) length(u32) addr(u64) rkey(u32) -> padded to 32 bytes.
CTRL = struct.Struct("<BIIQI")
HDR_BYTES = 32
_CTRL_PADDED = struct.Struct(f"{CTRL.format}{HDR_BYTES - CTRL.size}x")

# Control-message kinds.
K_EAGER = 1       # payload follows the header in the same slot
K_RTS = 2         # rendezvous request-to-send
K_CTS = 3         # rendezvous clear-to-send (addr/rkey of the target buffer)
K_FIN = 4         # rendezvous (read flavor) transfer finished
K_NOTIFY = 5      # direct-write notify (payload already WRITTEN)


def pack_ctrl(kind: int, seq: int, length: int, addr: int = 0,
              rkey: int = 0) -> bytes:
    return _CTRL_PADDED.pack(kind, seq, length, addr, rkey)


def unpack_ctrl(data: bytes):
    return CTRL.unpack_from(data)


def check_length(length: int, limit: int) -> int:
    """``length``, taken from a control header the peer wrote, when it fits
    the ``limit`` bytes of the buffer or slot it is about to index.  A peer
    is not trusted with our bounds: anything longer is a ProtocolError
    (which ends that one connection), never a read past the buffer."""
    if length > limit:
        raise ProtocolError(
            f"control header claims {length} bytes where {limit} fit")
    return length


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


#: what a receive path raises for a completion or a header that fails its
#: checks -- the case that pays the reaped poll alone (:func:`charge`)
CHECK_FAILED = (WCError, ProtocolError)


def charge(device: Device, pieces: tuple):
    """Coroutine: run ``pieces`` -- CPU work the thread owes and no post
    follows, e.g. the poll of a completion that failed its checks -- as one
    job; nothing when empty.

    A receive path reaps completions with their poll unpaid
    (:meth:`~repro.verbs.cq.CQ.reap`): a good one pays it in the job of
    its copy-out and ring re-post, a bad one pays it here, alone, before
    the error is raised -- as it did when the poll was charged on its
    own."""
    if pieces:
        yield device.node.cpu.compute(pieces)


class RecvRing:
    """The receive ring, registered once: slot *i* is bytes
    ``[i * slot_bytes, (i + 1) * slot_bytes)`` of one MR that ``rq`` -- a
    connection's QP, or the SRQ a server's connections share -- is bound to;
    posting slot *i* hands ``rq`` the number *i* and nothing else.  A slot is
    re-posted only after its completion was consumed, and re-posting it
    releases it (:meth:`MR.discard`): its message has been read out, and
    nothing reads the slot again before the NIC rewrites it."""

    def __init__(self, pd: PD, rq, slots: int, slot_bytes: int):
        self.rq = rq
        self.slots = slots
        self.slot_bytes = slot_bytes
        #: payload bytes a slot holds behind its control header
        self.capacity = slot_bytes - HDR_BYTES
        self.mr = pd.reg_mr(slots * slot_bytes)
        rq.bind_recv(self.mr, slots, slot_bytes)

    def post(self, i: int, before: tuple = ()):
        """Coroutine: release slot ``i`` and (re-)post it.  ``before`` is
        the CPU work that precedes the post on the calling thread -- the
        poll that reaped the slot, its copy-out -- charged with it as one
        job."""
        self.mr.discard(self.slot_bytes, offset=i * self.slot_bytes)
        yield from self.rq.post_recv(i, before)

    def post_all(self):
        """Coroutine: post every slot, in order, as one list."""
        yield from self.rq.post_recv(list(range(self.slots)))

    def read(self, i: int, length: int, offset: int = 0) -> bytes:
        return self.mr.read(length, offset=i * self.slot_bytes + offset)

    def header(self, i: int) -> tuple:
        """The control header at the front of slot ``i``, unpacked."""
        return unpack_ctrl(self.read(i, HDR_BYTES))


@dataclass(frozen=True)
class ProtocolRow:
    """One wire protocol: everything its two peers must agree on."""

    name: str
    #: endpoint class of the connecting / the accepting side
    client_end: type
    server_end: type
    #: True for protocols whose send/receive halves are independent enough
    #: to overlap multiple calls on one connection (stateless per-call wire
    #: slots, no single-valued rendezvous handshake).  The engine's
    #: pipelined path only splits post/recv on these; everything else runs
    #: call-at-a-time under the classic single-outstanding contract.
    pipelining: bool
    #: keyword arguments *both* endpoints are constructed with
    params: Mapping[str, Any]

    def open(self, end: type, device: Device, pd: PD, cfg: ProtoConfig):
        """One connection end's verbs resources -- two CQs and a QP -- under
        the ``end`` endpoint of this row."""
        qp = device.create_qp(pd, device.create_cq(), device.create_cq())
        return end(device, pd, qp, cfg, **self.params)


def hard_close(qp: Optional[QP]) -> None:
    """Error a connection's QP and its peer's (idempotent; None = never
    connected)."""
    if qp is not None:
        qp.to_error()
        if qp.peer is not None:
            qp.peer.to_error()


class RpcClient:
    """The client of every protocol: ``row`` says which."""

    def __init__(self, row: ProtocolRow, device: Device,
                 cfg: Optional[ProtoConfig] = None):
        self.row = row
        self.proto_name = row.name
        self.supports_pipelining = row.pipelining
        self.device = device
        self.sim = device.sim
        self.cfg = cfg or ProtoConfig()
        self.pd = device.alloc_pd()
        self.qp = None
        self._in_call = False
        self._act = None        # ActiveCall of the in-flight traced RPC
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

    def connect(self, remote_node, service_id: int):
        """Coroutine: establish the connection and exchange buffer metadata."""
        self.ep = ep = self.row.open(self.row.client_end, self.device,
                                     self.pd, self.cfg)
        self.qp = ep.qp
        self.scq = ep.qp.send_cq
        self.rcq = ep.qp.recv_cq
        peer_blob = yield from cm.connect(ep.qp, remote_node, service_id,
                                          private_data=ep.blob())
        ep.set_peer(peer_blob)
        yield from ep.setup()
        return self

    def _check(self, request: bytes) -> None:
        if len(request) > self.cfg.max_msg:
            raise ProtocolError(
                f"request of {len(request)} bytes exceeds max_msg "
                f"{self.cfg.max_msg}")

    def call(self, request: bytes, trace=None):
        """Coroutine: one RPC; returns the response bytes.

        ``trace`` is the engine's in-flight
        :class:`~repro.obs.trace.ActiveCall` (or None): the send/receive
        halves are bracketed into "post"/"complete" stage spans on it.
        """
        if self._in_call:
            raise ProtocolError(
                "connection already has an outstanding call (protocol "
                "connections are single-outstanding; use more connections "
                "for concurrency)")
        self._check(request)
        ep = self.ep
        self._in_call = True
        self._act = trace
        if self._m_ops is not None:
            t_start = self.sim.now
            db_start = ep.qp.doorbells
        try:
            yield from self._staged("post", ep.send_msg(request),
                                    nbytes=len(request))
            resp = yield from self._staged("complete", ep.recv_msg())
        finally:
            self._in_call = False
            self._act = None
        if self._m_ops is not None:
            self._m_ops.inc()
            self._m_req_bytes.inc(len(request))
            self._m_resp_bytes.inc(len(resp))
            self._m_latency.record(self.sim.now - t_start)
            self._m_doorbells.inc(ep.qp.doorbells - db_start)
        return resp

    def _need_pipelining(self) -> None:
        if not self.supports_pipelining:
            raise ProtocolError(
                f"{self.proto_name} cannot pipeline (no split post/recv)")

    def post(self, request: bytes):
        """Coroutine: put one request on the wire without waiting for its
        response (the pipelined send half; pair with :meth:`recv`)."""
        self._need_pipelining()
        self._check(request)
        yield from self.ep.send_msg(request)
        if self._m_ops is not None:
            self._m_ops.inc()
            self._m_req_bytes.inc(len(request))

    def recv(self):
        """Coroutine: the next response off the wire, in arrival order --
        the caller correlates it (the pipelined receive half)."""
        self._need_pipelining()
        resp = yield from self.ep.recv_msg()
        if self._m_resp_bytes is not None:
            self._m_resp_bytes.inc(len(resp))
        return resp

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
        hard_close(self.qp)


class RpcServer:
    """The server of every protocol: ``row`` says which.

    ``handler`` is either a plain callable ``bytes -> bytes`` or a generator
    function (coroutine) for handlers that consume simulated time (e.g. the
    checksum work of the ATB mix benchmark, or HatKV's LMDB calls).
    """

    def __init__(self, row: ProtocolRow, device: Device, service_id: int,
                 handler: Callable, cfg: Optional[ProtoConfig] = None):
        self.row = row
        self.proto_name = row.name
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
            ep = self.row.open(self.row.server_end, self.device, self.pd,
                               self.cfg)
            ep.set_peer(req.private_data)
            yield from ep.setup()
            yield from req.accept(ep.qp, private_data=ep.blob())
            self.connections += 1
            self.sim.process(self._serve_loop(ep),
                             name=f"serve-{self.service_id}-{self.connections}")

    #: "the connection is dead" -- an error completion or an operation on an
    #: already-flushed QP.  Local misuse (MemoryAccessError, oversize
    #: responses) deliberately stays loud instead of reading as a dead peer.
    _DEAD_CONN = (WCError, QPStateError)
    #: ... and, while a request is served, a request that is not a readable
    #: Thrift message: that connection is torn down, the server serves on
    _DEAD_REQUEST = (*_DEAD_CONN, *MALFORMED)

    def _serve_loop(self, ep):
        def on_dead():
            self.teardowns += 1
            hard_close(ep.qp)

        while True:
            t_poll = self.sim.now
            try:
                request = yield from ep.recv_msg()
            except (ProtocolError, *self._DEAD_CONN):
                # Tear it down server-side so a client reconnect starts clean.
                on_dead()
                return
            # The serve holds the request for as long as it reads it; the
            # loop drops it, so it is not kept through the next wait.
            serve = self._serve(request, t_poll, ep.send_msg, on_dead)
            del request
            if not (yield from serve):
                return

    def _serve(self, request: bytes, t_poll: float, send, on_dead):
        """Coroutine: hand ``request`` to the handler, whole -- this layer
        only *reads* the frame header's trace context, for the server span
        -- and ``send(resp)``.  Every request answered is counted; False
        when the connection died on the way (``on_dead()`` has run)."""
        ctx = frame.split(request)[0].trace if self._trc is not None \
            else None
        # The handler holds the request for as long as it reads it; this
        # frame lets go of it, so it is not kept while the reply goes out.
        handling = self._dispatch(request)
        del request

        def reply(resp):
            # Before any cost is charged, and loud: slots of a pipelined
            # window share one MR, so an oversize reply would land on its
            # neighbour's header instead of tripping a bounds check.
            if len(resp) > self.cfg.max_msg:
                raise ProtocolError(
                    f"response of {len(resp)} bytes exceeds max_msg "
                    f"{self.cfg.max_msg}")
            yield from send(resp)
            return {"nbytes": len(resp)}

        if (yield from obstrace.serve_one(
                self._trc, self.sim, self.device.node.name, self.proto_name,
                t_poll, ctx, handling, reply, self._DEAD_REQUEST)):
            self.requests += 1
            if self._m_requests is not None:
                self._m_requests.inc()
            return True
        on_dead()
        return False

    def _lifted(self, request: bytes):
        """A plain ``bytes -> bytes`` handler as the coroutine it stands
        in for."""
        return self.handler(request)
        yield  # pragma: no cover


_REGISTRY: Dict[str, tuple[Callable[..., RpcClient],
                           Callable[..., RpcServer]]] = {}


def register_protocol(name: str, client_end: type, server_end: type,
                      pipelining: bool = False, **params) -> None:
    """Add the row ``name``; ``params`` are what both endpoint classes are
    constructed with, after ``(device, pd, qp, cfg)``."""
    if name in _REGISTRY:
        raise ValueError(f"protocol {name!r} already registered")
    row = ProtocolRow(name, client_end, server_end, pipelining, params)
    pair = partial(RpcClient, row), partial(RpcServer, row)
    for make in pair:
        make.row = row
        make.proto_name = name
        make.supports_pipelining = pipelining
    _REGISTRY[name] = pair


def get_protocol(name: str) -> tuple[Callable[..., RpcClient],
                                     Callable[..., RpcServer]]:
    """The ``(client, server)`` constructors of the row ``name``: called as
    ``client(nic, cfg)`` / ``server(nic, service_id, handler, cfg)``, each
    carrying ``row``, ``proto_name`` and ``supports_pipelining``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown protocol {name!r}; known: {sorted(_REGISTRY)}") from None


def protocol_names() -> list[str]:
    return sorted(_REGISTRY)
