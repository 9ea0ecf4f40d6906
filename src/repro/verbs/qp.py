"""Queue pairs (RC) and the NIC datapath.

Timing model per work request (all constants from
:class:`~repro.verbs.costmodel.CostModel`):

* ``post_send`` charges the calling thread CPU for WQE construction per WR
  plus **one** MMIO doorbell per call -- chained WRs (``wr.next``) share the
  doorbell, which is Chained-Write-Send's whole advantage (Fig. 3c);
* the NIC then occupies the sender's TX port for WQE processing + wire
  serialization, the wire for the propagation latency, and the receiver's RX
  port for arrival serialization -- so a busy server NIC is a real bottleneck
  under incast;
* RDMA READ runs entirely on the two NICs: a small request message, the
  responder's NIC service time (no responder CPU), and the data on the
  reverse path.  This is what makes server-bypass designs (Pilaf/FaRM/RFP)
  cheap for the server and is the asymmetry the RFP paper exploits;
* send-side completions are delivered after the ACK propagation, receive-side
  completions when the last byte has landed.

How it runs: a posted chain is one :class:`_Chain` object, and each WR is a
*callback chain* on the event heap -- every step (TX, wire plus RX, ACK, a
retry) is one timeout whose callback is the next step; no process is
spawned per chain or per WR.  Each side of a port is a
:class:`~repro.sim.sync.Lane` (its next-free time), so occupying it is that
one timeout, at the float FIFO service would give; the receiver's RX side
is booked when the packet leaves, for ``wire_latency`` later, so the wire
and the RX side are one step.

A receive queue (a QP's own, or an SRQ) is bound to one ring MR and holds
posted slot numbers: a SEND or WRITE_WITH_IMM takes the next slot *i*, lands
at ``base + i * slot_bytes`` and completes with ``wr_id = i``.

Payload bytes move by reference: a WRITE, WRITE_WITH_IMM or SEND *gathers*
its local SGE (:meth:`~repro.verbs.memory.Memory.gather`) and *scatters* the
pieces at the remote address or into the claimed receive slot; a READ gathers
at the responder and scatters into the local SGE.  The NIC never joins, so
the receiver's memory holds the sender's objects.

Error semantics follow RC: a remote access fault is NAKed by the responder,
which enters ERROR at once, so later WRs that reach it are dropped (no
memory write, no receive completion); the offending WR completes with an
error status, both QPs move to ERROR (flushing pending receive slots), and
every later WR of its chain completes ``WR_FLUSH_ERR``, signaled or not.
Exhausted RNR or transport retries complete the WR with an error the same
way.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Union

from repro.verbs.errors import MemoryAccessError, QPStateError, VerbsError
from repro.verbs.types import (
    Opcode,
    QPState,
    SendWR,
    WC,
    WCOpcode,
    WCStatus,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Event
    from repro.verbs.cq import CQ
    from repro.verbs.device import Device, MR, PD

__all__ = ["QP", "SRQ", "connect_pair"]

_SEND_WC = {
    Opcode.SEND: WCOpcode.SEND,
    Opcode.RDMA_WRITE: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_WRITE_WITH_IMM: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_READ: WCOpcode.RDMA_READ,
}


class RecvQueue:
    """A receive queue: the posted slots of the one ring MR it is bound to
    (:meth:`bind_recv`), as slot numbers in FIFO order.  The NIC derives a
    slot's landing address, capacity and ``wr_id`` from its number."""

    def __init__(self, device: "Device"):
        self.device = device
        self._queue: Deque[int] = deque()
        self.lkey = self.base = self.slots = self.slot_bytes = 0  # unbound

    def bind_recv(self, mr: "MR", slots: int, slot_bytes: int) -> None:
        """Make the first ``slots * slot_bytes`` bytes of ``mr`` this
        queue's ring (once per queue)."""
        if self.lkey:
            raise QPStateError("receive queue already bound to a ring")
        self.device.check_lkey(mr.lkey, mr.addr, slots * slot_bytes)
        self.lkey = mr.lkey
        self.base = mr.addr
        self.slots = slots
        self.slot_bytes = slot_bytes

    def _job(self, slot: Union[int, List[int]], before: tuple) -> "Event":
        """The CPU job of posting ``slot``, or a list of slots as one job of
        ``len(slot)`` back-to-back posts.  The ring's MR and the slots are
        checked before any time passes; a list takes no leading pieces."""
        device = self.device
        if self.lkey not in device._mrs:
            raise MemoryAccessError(f"unknown lkey {self.lkey:#x}")
        cost = device.cost.post_recv_cpu
        if type(slot) is not list:
            if not 0 <= slot < self.slots:
                raise MemoryAccessError(
                    f"slot {slot} outside a ring of {self.slots} slots")
            return device.node.cpu.compute((*before, cost) if before else cost)
        if before:
            raise ValueError("a slot list is posted without leading pieces")
        if slot and not (0 <= min(slot) and max(slot) < self.slots):
            raise MemoryAccessError(
                f"slot list outside a ring of {self.slots} slots")
        return device.node.cpu.compute(cost, len(slot))


class SRQ(RecvQueue):
    """Shared receive queue: one ring of slots serving many QPs."""

    def post_recv(self, slot: Union[int, List[int]], before: tuple = ()):
        """Coroutine: post a slot, or a list of them in one call, to the
        shared queue (see :meth:`QP.post_recv`)."""
        land = self._queue.extend if type(slot) is list else self._queue.append
        yield self._job(slot, before)
        land(slot)

    def __len__(self) -> int:
        return len(self._queue)


class QP(RecvQueue):
    """A reliable-connected queue pair; without an SRQ it is its own
    receive queue."""

    def __init__(self, device: "Device", pd: "PD", qp_num: int,
                 send_cq: "CQ", recv_cq: "CQ", srq: Optional[SRQ] = None):
        super().__init__(device)
        self.pd = pd
        self.qp_num = qp_num
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.srq = srq
        #: the queue an arriving SEND or WRITE_WITH_IMM takes its slot from
        self._rq: RecvQueue = self if srq is None else srq
        self.state = QPState.RESET
        self.peer: Optional["QP"] = None
        #: doorbells rung by THIS QP -- lets a protocol endpoint attribute
        #: device-global doorbell counts to itself (per-protocol metrics)
        self.doorbells = 0

    # -- verbs calls (host side) ---------------------------------------------
    def post_recv(self, slot: Union[int, List[int]], before: tuple = ()):
        """Coroutine: post one slot of the bound ring, or a list of slots in
        one call (``ibv_post_recv`` with a WR list).

        A list is checked in full before any time passes, is charged as one
        CPU job of ``len(slot)`` back-to-back posts and lands in list order.

        ``before`` is CPU work the calling thread runs just ahead of a
        single post (the poll that reaped the slot, its copy-out): the
        pieces and the post are one job.  A list takes no ``before``.

        If the QP enters ERROR during the job nothing is posted and
        :class:`QPStateError` is raised.
        """
        if self.state is QPState.ERROR:
            raise QPStateError("post_recv on QP in ERROR state")
        if self.srq is not None:
            raise QPStateError("QP uses an SRQ; post to the SRQ instead")
        land = self._queue.extend if type(slot) is list else self._queue.append
        yield self._job(slot, before)
        if self.state is QPState.ERROR:
            raise QPStateError("QP entered ERROR during post_recv")
        land(slot)

    def post_send(self, wr: SendWR, numa_local: bool = True,
                  before: tuple = ()):
        """Coroutine: post a WR chain; one doorbell regardless of length.

        ``before`` is CPU work the calling thread runs just ahead of the
        post (the copy into the WR's source): the pieces and the WQE build
        plus doorbell are one job.  If the QP leaves RTS during the job
        nothing is posted and :class:`QPStateError` is raised.
        """
        if self.state is not QPState.RTS:
            raise QPStateError(f"post_send on QP in state {self.state.value}")
        if self.peer is None:
            raise QPStateError("QP has no connected peer")
        chain: List[SendWR] = []
        cursor: Optional[SendWR] = wr
        while cursor is not None:
            self._validate(cursor)
            chain.append(cursor)
            cursor = cursor.next
        cost = self.device.cost
        cpu_cost = self.device.cpu_time(
            cost.wqe_build_cpu * len(chain) + cost.doorbell_cpu, numa_local)
        yield self.device.node.cpu.compute(
            (*before, cpu_cost) if before else cpu_cost)
        if self.state is not QPState.RTS:
            raise QPStateError("QP left RTS during post_send")
        self.device.doorbells += 1
        self.device.wrs_posted += len(chain)
        self.doorbells += 1
        if self.device._m_doorbells is not None:
            self.device._m_doorbells.inc()
            self.device._m_wrs.inc(len(chain))
        ap = self.device.sim.active_process
        _Chain(self, chain, ap.trace_ctx if ap is not None else None)

    def _validate(self, wr: SendWR) -> None:
        self.device.check_lkey(wr.sge.lkey, wr.sge.addr, wr.sge.length)
        if wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM,
                         Opcode.RDMA_READ) and wr.rkey == 0:
            raise VerbsError(f"{wr.opcode.value} WR requires an rkey")

    # -- state management -------------------------------------------------------
    def to_error(self) -> None:
        """Move to ERROR, flushing posted receive WQEs."""
        if self.state is QPState.ERROR:
            return
        self.state = QPState.ERROR
        while self._queue:
            self.recv_cq.push(WC(self._queue.popleft(), WCOpcode.RECV,
                                 WCStatus.WR_FLUSH_ERR, qp_num=self.qp_num))
        if self.srq is not None:
            # SRQ WQEs belong to the pool, not this QP, so there is nothing
            # of ours to flush -- but the owner of the shared CQ still needs
            # to learn this connection died.  Real HCAs raise the
            # "last WQE reached" async event; the simulator models it as a
            # single flush WC carrying our qp_num on the shared recv CQ.
            self.recv_cq.push(WC(0, WCOpcode.RECV, WCStatus.WR_FLUSH_ERR,
                                 qp_num=self.qp_num))

    @property
    def recv_depth(self) -> int:
        return len(self._rq._queue)

    # -- NIC datapath -------------------------------------------------------------
    def _transport_guard(self, retries: int) -> Optional[WCStatus]:
        """One RC transport check against link faults.

        Models the requester NIC's local-ACK-timeout retransmission: while
        the path is inside a down window (or the packet is lost in a drop
        window, or the peer node has crashed), wait
        ``transport_retry_timeout`` and try again, up to
        ``transport_retry_limit`` times.  Returns ``WCStatus.SUCCESS`` when
        the wire accepts the packet now, ``None`` when the caller must wait
        and check again with ``retries + 1``, and ``RETRY_EXC_ERR`` when the
        budget is exhausted.  Called from NIC callbacks, so faults are
        *returned* as statuses, never raised.
        """
        dev = self.device
        rdev = self.peer.device
        port = dev.port
        now = dev.sim.now
        if (getattr(rdev.node, "up", True)
                and not port.path_down(rdev.port, now)
                and not port.path_drop(rdev.port, now)):
            return WCStatus.SUCCESS
        if retries >= dev.cost.transport_retry_limit:
            port.faults_seen += 1
            return WCStatus.RETRY_EXC_ERR
        return None


class _Chain:
    """One posted WR chain on the NIC, run as callbacks on the event heap.

    WRs *pipeline*: each WR's TX (WQE processing + wire serialization)
    takes the sender's TX lane in posting order, its payload gathered when
    that TX starts, and its remote phase -- transport guard, propagation,
    the receiver's RX lane, delivery, ACK -- runs while the next WR is on
    the TX lane, exactly how a real HCA streams a chain.  Receiver-side
    ordering holds because the peer's RX lane is FIFO and propagation
    latency is constant.  An RDMA READ is its own callback chain (request
    TX, wire, responder RX, response TX, wire, local RX); it books the TX
    lane only after the chain's next non-READ WR has booked it (the order
    ``tests/verbs/test_nic_pins.py`` pins).  Completions are reaped in
    posting order, only once the last WR has left the TX lane.  A WR's
    gathered payload is let go of once it is written: a WRITE's on landing,
    a SEND's in the receive slot it claims (an RNR retry still needs it
    before that), a READ's at the poster.

    Every step is a timeout whose value is the WR's index, with a bound
    method of this object as its one callback; retries re-schedule the
    same step.  A packet's propagation and its turn on the receiver's RX
    lane are one step, booked as it leaves (``Lane.hold``'s ``after``).
    The per-WR "network" trace stage (TX start to ACK or last byte) goes to
    the poster's trace context, held here.
    """

    __slots__ = ("qp", "dev", "peer", "rdev", "wrs", "ctx", "t_tx",
                 "payloads", "status", "next", "head")

    def __init__(self, qp: QP, wrs: List[SendWR], ctx):
        n = len(wrs)
        self.qp = qp
        self.dev = qp.device
        self.peer = peer = qp.peer
        self.rdev = peer.device
        self.wrs = wrs
        self.ctx = ctx
        self.t_tx = [0.0] * n
        self.payloads: list = [None] * n
        self.status: List[Optional[WCStatus]] = [None] * n
        self.next = 0     # WR on (or next for) the TX lane; n once all left
        self.head = 0     # next WR to reap
        self._transmit()

    # -- TX lane and reaping ---------------------------------------------------
    def _transmit(self) -> None:
        """Book the TX lane for the next WR; start the READs met on the way
        once it is booked, and reap once every WR has left."""
        wrs = self.wrs
        dev = self.dev
        now = dev.sim.now
        first = k = self.next
        while k < len(wrs):
            wr = wrs[k]
            self.t_tx[k] = now
            if wr.opcode is not Opcode.RDMA_READ:
                self.payloads[k] = dev.mem.gather(wr.sge.addr, wr.sge.length)
                port = dev.port
                port.tx.hold(dev.cost.wqe_nic + port.wire_time(wr.sge.length),
                             k).callbacks.append(self._sent)
                break
            k += 1
        self.next = k
        for read in range(first, k):
            self._guard(read, 0)
        if k == len(wrs):
            self._reap()

    def _sent(self, ev) -> None:
        k = ev._value
        port = self.dev.port
        port.bytes_sent += self.wrs[k].sge.length
        port.messages_sent += 1
        self._guard(k, 0)
        self.next = k + 1
        self._transmit()

    def _finish(self, k: int, status: WCStatus) -> None:
        self.status[k] = status
        if self.next == len(self.wrs):
            self._reap()

    def _reap(self) -> None:
        """Push the completions of the finished WRs at the head, in posting
        order.  A failed WR moves both QPs to ERROR and flushes every WR
        after it (signaled or not); errors always generate a completion."""
        wrs, status = self.wrs, self.status
        qp = self.qp
        ctx = self.ctx
        now = self.dev.sim.now
        k = self.head
        while k < len(wrs) and status[k] is not None:
            wr, st = wrs[k], status[k]
            if ctx is not None:
                ctx.stage("network", self.t_tx[k], now,
                          opcode=wr.opcode.value, nbytes=wr.sge.length,
                          wc=st.name.lower())
            k += 1
            if st is not WCStatus.SUCCESS:
                qp.send_cq.push(WC(wr.wr_id, _SEND_WC[wr.opcode], st,
                                   qp_num=qp.qp_num))
                qp.to_error()
                self.peer.to_error()
                for rest in wrs[k:]:
                    qp.send_cq.push(WC(rest.wr_id, _SEND_WC[rest.opcode],
                                       WCStatus.WR_FLUSH_ERR,
                                       qp_num=qp.qp_num))
                k = len(wrs)
            elif wr.signaled:
                qp.send_cq.push(WC(wr.wr_id, _SEND_WC[wr.opcode],
                                   WCStatus.SUCCESS, byte_len=wr.sge.length,
                                   qp_num=qp.qp_num))
        self.head = k

    # -- remote phase: guard -> wire + RX -> deliver -> ACK -------------------
    def _guard(self, k: int, retries: int) -> None:
        status = self.qp._transport_guard(retries)
        if status is None:
            self.dev.sim.timeout(self.dev.cost.transport_retry_timeout,
                                 (k, retries + 1)).callbacks.append(
                                     self._retry_guard)
        elif status is not WCStatus.SUCCESS:
            self._finish(k, status)
        elif self.wrs[k].opcode is Opcode.RDMA_READ:
            port = self.dev.port
            port.tx.hold(self.dev.cost.wqe_nic
                         + port.wire_time(self.dev.cost.read_request_bytes),
                         k).callbacks.append(self._read_sent)
        else:
            port = self.rdev.port
            port.rx.hold(port.wire_time(self.wrs[k].sge.length)
                         + self.dev.cost.rx_nic, k,
                         self.dev.fabric.params.wire_latency
                         ).callbacks.append(self._land)

    def _retry_guard(self, ev) -> None:
        self._guard(*ev._value)

    def _land(self, ev) -> None:
        k = ev._value
        wr = self.wrs[k]
        rdev = self.rdev
        n = wr.sge.length
        rdev.port.bytes_received += n
        if self.peer.state is QPState.ERROR:
            self._finish(k, WCStatus.WR_FLUSH_ERR)      # dropped
            return
        op = wr.opcode
        if op is Opcode.RDMA_WRITE or op is Opcode.RDMA_WRITE_WITH_IMM:
            try:
                rdev.mr_for_rkey(wr.rkey, wr.remote_addr, n)
            except MemoryAccessError:
                self._reject(k)
                return
            rdev.mem.write(wr.remote_addr, self.payloads[k])
            self.payloads[k] = None
            rdev._notify_write(wr.remote_addr, n)
        if op is Opcode.RDMA_WRITE:
            self._ack(k)
        else:
            self._claim_recv(k, 0)

    def _claim_recv(self, k: int, retries: int) -> None:
        """Take a receive slot at the peer, honoring RNR retries."""
        peer = self.peer
        if peer.state is QPState.ERROR:
            self._finish(k, WCStatus.WR_FLUSH_ERR)      # dropped
            return
        rq = peer._rq
        if not rq._queue:
            cost = self.dev.cost
            if retries >= cost.rnr_retry_limit:
                self._finish(k, WCStatus.RNR_RETRY_EXC_ERR)
            else:
                self.dev.sim.timeout(cost.rnr_timer, (k, retries + 1)
                                     ).callbacks.append(self._retry_claim)
            return
        slot = rq._queue.popleft()
        wr = self.wrs[k]
        n = wr.sge.length
        if wr.opcode is Opcode.SEND:
            size = rq.slot_bytes
            if n > size:
                peer.recv_cq.push(WC(slot, WCOpcode.RECV,
                                     WCStatus.LOC_LEN_ERR,
                                     qp_num=peer.qp_num))
                self._reject(k)
                return
            addr = rq.base + slot * size
            self.rdev.mem.write(addr, self.payloads[k])
            self.payloads[k] = None
            peer.recv_cq.push(WC(slot, WCOpcode.RECV, WCStatus.SUCCESS,
                                 byte_len=n, qp_num=peer.qp_num, addr=addr))
        else:
            peer.recv_cq.push(WC(slot, WCOpcode.RECV_RDMA_WITH_IMM,
                                 WCStatus.SUCCESS, byte_len=n, imm=wr.imm,
                                 qp_num=peer.qp_num, addr=wr.remote_addr))
        self._ack(k)

    def _retry_claim(self, ev) -> None:
        self._claim_recv(*ev._value)

    def _reject(self, k: int) -> None:
        """The responder NAKs WR ``k``: it enters ERROR at once, so nothing
        that reaches it later lands."""
        self.peer.to_error()
        self._finish(k, WCStatus.REM_ACCESS_ERR)

    def _ack(self, k: int) -> None:
        """ACK propagation back to the sender NIC."""
        self.dev.sim.timeout(self.dev.fabric.params.wire_latency,
                             k).callbacks.append(self._acked)

    def _acked(self, ev) -> None:
        self._finish(ev._value, WCStatus.SUCCESS)

    # -- RDMA READ: request TX -> wire + responder RX -> response TX -> wire
    # -- + local RX; the responder NIC serves it, no responder CPU -----------
    def _read_sent(self, ev) -> None:
        port = self.rdev.port
        port.rx.hold(port.wire_time(self.dev.cost.read_request_bytes)
                     + self.dev.cost.read_service_nic, ev._value,
                     self.dev.fabric.params.wire_latency
                     ).callbacks.append(self._read_serve)

    def _read_serve(self, ev) -> None:
        k = ev._value
        wr = self.wrs[k]
        rdev = self.rdev
        n = wr.sge.length
        if self.peer.state is QPState.ERROR:
            self._finish(k, WCStatus.WR_FLUSH_ERR)      # dropped
            return
        try:
            rdev.mr_for_rkey(wr.rkey, wr.remote_addr, n)
        except MemoryAccessError:
            self.peer.to_error()
            self.dev.sim.timeout(self.dev.fabric.params.wire_latency,
                                 k).callbacks.append(self._read_nak)
            return
        self.payloads[k] = rdev.mem.gather(wr.remote_addr, n)
        rdev.port.tx.hold(rdev.port.wire_time(n), k).callbacks.append(
            self._read_replied)

    def _read_nak(self, ev) -> None:
        self._finish(ev._value, WCStatus.REM_ACCESS_ERR)

    def _read_replied(self, ev) -> None:
        k = ev._value
        n = self.wrs[k].sge.length
        port = self.rdev.port
        port.bytes_sent += n
        port.messages_sent += 1
        port = self.dev.port
        port.rx.hold(port.wire_time(n), k,
                     self.dev.fabric.params.wire_latency
                     ).callbacks.append(self._read_landed)

    def _read_landed(self, ev) -> None:
        k = ev._value
        wr = self.wrs[k]
        dev = self.dev
        dev.port.bytes_received += wr.sge.length
        dev.mem.write(wr.sge.addr, self.payloads[k])
        self.payloads[k] = None
        self._finish(k, WCStatus.SUCCESS)


def connect_pair(a: QP, b: QP) -> None:
    """Directly wire two QPs RTS<->RTS (test/bench helper; production code
    goes through :mod:`repro.verbs.cm`)."""
    if a.peer is not None or b.peer is not None:
        raise QPStateError("QP already connected")
    a.peer = b
    b.peer = a
    a.state = QPState.RTS
    b.state = QPState.RTS
