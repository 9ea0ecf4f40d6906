"""SRQ server receive path for the eager two-sided protocol.

The classic :class:`~repro.protocols.twosided.EagerServer` runs one serve
loop -- and one pre-posted receive ring -- per connection.  Past a handful
of busy-polled connections the per-loop spinners oversubscribe the server's
cores (the GPS scheduler shares them fairly, so *everything* slows down),
and past a few hundred connections the per-ring slot memory dominates.
That is exactly the degradation mode this module removes:

* **one SRQ** (:class:`~repro.verbs.qp.SRQ`) holds a single recv-WQE pool
  serving every client QP -- slot memory scales with the in-flight window
  of the whole server, not with connection count;
* **one shared recv CQ** collects all inbound completions, demuxed by the
  ``qp_num`` each WC carries;
* **one dispatcher process** polls that CQ -- a single spinner whatever the
  client count -- copies each eager payload out, re-posts the slot to the
  SRQ, and spawns a short-lived worker per request (handler + reply), so
  slow handlers never head-of-line-block the receive path.

Only the receive half is shared: replies go out on the *per-connection* QP
the request arrived on, using the same rotating send-slot geometry as
:class:`~repro.protocols.twosided.TwoSidedEndpoint`, so the stock
``eager_sendrecv`` client is wire-compatible and unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.protocols.base import (
    HDR_BYTES,
    K_EAGER,
    ProtoConfig,
    ProtocolError,
    RpcServer,
    pack_ctrl,
    unpack_ctrl,
)
from repro.verbs import cm
from repro.verbs.device import Device, MR, PD
from repro.verbs.qp import QP
from repro.verbs.types import Opcode, RecvWR, SendWR, Sge, WCStatus

__all__ = ["SRQ_SERVERS", "SrqEagerServer"]


class _SrqConn:
    """The reply half of one accepted connection (the receive half lives
    on the server's shared SRQ)."""

    def __init__(self, device: Device, pd: PD, qp: QP, cfg: ProtoConfig):
        self.device = device
        self.qp = qp
        self.cfg = cfg
        slot_size = HDR_BYTES + cfg.max_msg
        # Rotating send slots, one per in-flight reply (seq picks the
        # slot) -- same geometry as TwoSidedEndpoint, so a pipelined
        # window of replies never rewrites a slot still being sourced.
        self._send_slots: List[MR] = [pd.reg_mr(slot_size)
                                      for _ in range(max(1, cfg.window))]
        self._seq = 0

    def send_msg(self, data: bytes):
        """Coroutine: one eager reply on this connection's QP."""
        if len(data) > self.cfg.max_msg:
            raise ProtocolError(
                f"response of {len(data)} bytes exceeds max_msg "
                f"{self.cfg.max_msg}")
        self._seq += 1
        hdr = pack_ctrl(K_EAGER, self._seq, len(data))
        slot = self._send_slots[(self._seq - 1) % len(self._send_slots)]
        yield from self.device.memcpy(len(data), self.cfg.numa_local)
        slot.write(hdr + data)
        yield from self.qp.post_send(
            SendWR(Opcode.SEND,
                   Sge(slot.addr, HDR_BYTES + len(data), slot.lkey),
                   signaled=False),
            numa_local=self.cfg.numa_local)


class SrqEagerServer(RpcServer):
    """Eager-SendRecv server whose receive path is one SRQ + one CQ +
    one dispatcher, shared by every connection.

    ``srq_slots`` sizes the shared recv-WQE pool (default: the config's
    ``ring_slots``).  It bounds the server's total in-flight *arrivals*
    across all clients; bursts beyond it are absorbed by the RC transport's
    RNR retry, not dropped.
    """

    proto_name = "eager_srq"

    def __init__(self, device: Device, service_id: int, handler,
                 cfg: Optional[ProtoConfig] = None,
                 srq_slots: Optional[int] = None):
        super().__init__(device, service_id, handler, cfg)
        self.srq_slots = srq_slots if srq_slots is not None \
            else self.cfg.ring_slots
        self.srq = None
        self.rcq = None
        self.scq = None
        self._slots: List[MR] = []
        self._conns: Dict[int, _SrqConn] = {}   # qp_num -> conn

    def start(self) -> "SrqEagerServer":
        self.listener = cm.listen(self.device, self.service_id)
        self.srq = self.device.create_srq()
        self.rcq = self.device.create_cq(
            capacity=max(4096, 2 * self.srq_slots))
        self.scq = self.device.create_cq()
        self.sim.process(self._run(),
                         name=f"srq-dispatch-{self.service_id}")
        self.sim.process(self._accept_loop(),
                         name=f"accept-{self.service_id}")
        return self

    # -- receive path --------------------------------------------------------
    def _run(self):
        """Coroutine: post the shared slot pool, then dispatch forever."""
        slot_size = HDR_BYTES + self.cfg.max_msg
        for i in range(self.srq_slots):
            mr = self.pd.reg_mr(slot_size)
            self._slots.append(mr)
            yield from self.srq.post_recv(
                RecvWR(Sge(mr.addr, mr.length, mr.lkey), wr_id=i))
        while not self._stopped:
            t_poll = self.sim.now
            wcs = yield from self.rcq.wait(self.cfg.poll_mode)
            for wc in wcs:
                yield from self._one_wc(wc, t_poll)

    def _one_wc(self, wc, t_poll: float):
        if wc.status is not WCStatus.SUCCESS:
            # An error completion names its connection via qp_num; only
            # that connection dies -- the pool and its neighbors carry on.
            self._drop_conn(wc.qp_num)
            return
        slot = self._slots[wc.wr_id]
        kind, _seq, length, _addr, _rkey = unpack_ctrl(slot.read(HDR_BYTES))
        if kind != K_EAGER:
            raise ProtocolError(
                f"SRQ server got non-eager control kind {kind}")
        # Copy out, then immediately re-post: the slot is back in the pool
        # before the handler runs, so slow handlers cost RNR pressure on
        # *admitted* work only, never on the shared receive ring.
        yield from self.device.memcpy(length, self.cfg.numa_local)
        request = slot.read(length, offset=HDR_BYTES)
        yield from self.srq.post_recv(
            RecvWR(Sge(slot.addr, slot.length, slot.lkey), wr_id=wc.wr_id))
        conn = self._conns.get(wc.qp_num)
        if conn is None:
            return   # raced with a teardown; the late request is dropped
        # Handler + reply in the request's own process, so requests from
        # all connections execute concurrently.
        self.sim.process(
            self._serve(request, t_poll, conn.send_msg,
                        lambda: self._drop_conn(conn.qp.qp_num)),
            name=f"srq-serve-{self.service_id}-{wc.qp_num}")

    # -- connection management -----------------------------------------------
    def _accept_loop(self):
        while not self._stopped:
            req = yield self.listener.accept()
            qp = self.device.create_qp(self.pd, self.scq, self.rcq,
                                       srq=self.srq)
            conn = _SrqConn(self.device, self.pd, qp, self.cfg)
            yield from req.accept(qp)
            self._conns[qp.qp_num] = conn
            self.connections += 1

    def _drop_conn(self, qp_num: int) -> None:
        conn = self._conns.pop(qp_num, None)
        if conn is not None:
            self.teardowns += 1
            self._teardown(conn)


#: protocol name -> SRQ-backed server class, for runtimes that opt in
#: (``HatRpcServer(srq=True)``).  The matching *client* class is unchanged:
#: the SRQ is invisible on the wire.
SRQ_SERVERS = {"eager_sendrecv": SrqEagerServer}
