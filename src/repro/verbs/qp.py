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

Payload bytes move by reference: a WRITE, WRITE_WITH_IMM or SEND *gathers*
its local SGE (:meth:`~repro.verbs.memory.Memory.gather`) and *scatters* the
pieces at the remote address or into the claimed receive WQE; a READ gathers
at the responder and scatters into the local SGE.  The NIC never joins, so
the receiver's memory holds the sender's objects.

Error semantics follow RC: remote access faults and exhausted RNR retries
complete the offending WR with an error status and move both QPs to ERROR,
flushing pending receive WQEs.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional

from repro.verbs.errors import MemoryAccessError, QPStateError, VerbsError
from repro.verbs.types import (
    Opcode,
    QPState,
    RecvWR,
    SendWR,
    WC,
    WCOpcode,
    WCStatus,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.cq import CQ
    from repro.verbs.device import Device, PD

__all__ = ["QP", "SRQ", "connect_pair"]

_SEND_WC = {
    Opcode.SEND: WCOpcode.SEND,
    Opcode.RDMA_WRITE: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_WRITE_WITH_IMM: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_READ: WCOpcode.RDMA_READ,
}


class SRQ:
    """Shared receive queue: one recv-WQE pool serving many QPs."""

    def __init__(self, device: "Device"):
        self.device = device
        self._queue: Deque[RecvWR] = deque()

    def post_recv(self, rwr: RecvWR):
        """Coroutine: post a receive buffer to the shared queue."""
        self.device.check_lkey(rwr.sge.lkey, rwr.sge.addr, rwr.sge.length)
        yield self.device.node.cpu.compute(self.device.cost.post_recv_cpu)
        self._queue.append(rwr)

    def _take(self) -> Optional[RecvWR]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class QP:
    """A reliable-connected queue pair."""

    def __init__(self, device: "Device", pd: "PD", qp_num: int,
                 send_cq: "CQ", recv_cq: "CQ", srq: Optional[SRQ] = None):
        self.device = device
        self.pd = pd
        self.qp_num = qp_num
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.srq = srq
        self.state = QPState.RESET
        self.peer: Optional["QP"] = None
        self._recv_queue: Deque[RecvWR] = deque()
        #: doorbells rung by THIS QP -- lets a protocol endpoint attribute
        #: device-global doorbell counts to itself (per-protocol metrics)
        self.doorbells = 0

    # -- verbs calls (host side) ---------------------------------------------
    def post_recv(self, rwr: RecvWR):
        """Coroutine: post one receive WQE."""
        if self.state is QPState.ERROR:
            raise QPStateError("post_recv on QP in ERROR state")
        if self.srq is not None:
            raise QPStateError("QP uses an SRQ; post to the SRQ instead")
        self.device.check_lkey(rwr.sge.lkey, rwr.sge.addr, rwr.sge.length)
        yield self.device.node.cpu.compute(self.device.cost.post_recv_cpu)
        self._recv_queue.append(rwr)

    def post_send(self, wr: SendWR, numa_local: bool = True):
        """Coroutine: post a WR chain; one doorbell regardless of length."""
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
        yield self.device.node.cpu.compute(cpu_cost)
        self.device.doorbells += 1
        self.device.wrs_posted += len(chain)
        self.doorbells += 1
        if self.device._m_doorbells is not None:
            self.device._m_doorbells.inc()
            self.device._m_wrs.inc(len(chain))
        self.device.sim.process(self._nic_chain(chain),
                                name=f"nic-qp{self.qp_num}")

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
        while self._recv_queue:
            rwr = self._recv_queue.popleft()
            self.recv_cq.push(WC(rwr.wr_id, WCOpcode.RECV,
                                 WCStatus.WR_FLUSH_ERR, qp_num=self.qp_num))
        if self.srq is not None:
            # SRQ WQEs belong to the pool, not this QP, so there is nothing
            # of ours to flush -- but the owner of the shared CQ still needs
            # to learn this connection died.  Real HCAs raise the
            # "last WQE reached" async event; the simulator models it as a
            # single flush WC carrying our qp_num on the shared recv CQ.
            self.recv_cq.push(WC(0, WCOpcode.RECV, WCStatus.WR_FLUSH_ERR,
                                 qp_num=self.qp_num))

    def _take_recv(self) -> Optional[RecvWR]:
        if self.srq is not None:
            return self.srq._take()
        return self._recv_queue.popleft() if self._recv_queue else None

    @property
    def recv_depth(self) -> int:
        return len(self.srq) if self.srq is not None else len(self._recv_queue)

    # -- NIC datapath -------------------------------------------------------------
    def _transport_guard(self):
        """Coroutine: RC transport retries against link faults.

        Models the requester NIC's local-ACK-timeout retransmission: while
        the path is inside a down window (or the packet is lost in a drop
        window, or the peer node has crashed), wait ``transport_retry_timeout``
        and try again, up to ``transport_retry_limit`` times.  Returns
        ``WCStatus.SUCCESS`` once the wire accepts the packet, or
        ``RETRY_EXC_ERR`` when the budget is exhausted.  Runs inside detached
        NIC processes, so faults are *returned* as statuses, never raised.
        """
        dev = self.device
        peer = self.peer
        assert peer is not None
        rnode = peer.device.node
        fabric = dev.fabric
        cost = dev.cost
        retries = 0
        while (not getattr(rnode, "up", True)
               or fabric.link_down(dev.node, rnode)
               or fabric.roll_drop(dev.node, rnode)):
            if retries >= cost.transport_retry_limit:
                dev.port.faults_seen += 1
                return WCStatus.RETRY_EXC_ERR
            retries += 1
            yield dev.sim.timeout(cost.transport_retry_timeout)
        return WCStatus.SUCCESS

    def _nic_chain(self, chain: List[SendWR]):
        """Process a WR chain.

        WRs *pipeline*: each WR's TX (wire serialization) happens in posting
        order on this process, but its remote phase (propagation, receiver
        processing, ACK) runs concurrently with the next WR's TX -- exactly
        how a real HCA streams a chain.  Receiver-side ordering is still
        guaranteed because the peer's RX port is a FIFO and propagation
        latency is constant.  Completions are reaped (and pushed) in posting
        order.
        """
        sim = self.device.sim
        # This process inherited the posting RPC's trace context; record one
        # "network" stage per WR, from TX start to ACK/last-byte completion
        # -- the real wire time, measured at the NIC.
        ap = sim.active_process
        ctx = ap.trace_ctx if ap is not None else None
        pending: List[tuple[SendWR, float, object]] = []
        for wr in chain:
            t_tx = sim.now
            if wr.opcode is Opcode.RDMA_READ:
                phase = self._nic_read(wr)
            else:
                payload = self.device.mem.gather(wr.sge.addr, wr.sge.length)
                yield from self.device.port.tx.use(
                    self.device.cost.wqe_nic
                    + self.device.port.wire_time(wr.sge.length))
                self.device.port.bytes_sent += wr.sge.length
                self.device.port.messages_sent += 1
                phase = self._remote_phase(wr, payload)
            pending.append((wr, t_tx, self.device.sim.process(
                phase, name=f"wr-qp{self.qp_num}")))
        for wr, t_tx, proc in pending:
            status = yield proc
            if ctx is not None:
                ctx.stage("network", t_tx, sim.now,
                          opcode=wr.opcode.value, nbytes=wr.sge.length,
                          wc=status.name.lower())
            if status is not WCStatus.SUCCESS:
                # Errors always generate a completion, signaled or not.
                self.send_cq.push(WC(wr.wr_id, _SEND_WC[wr.opcode], status,
                                     qp_num=self.qp_num))
                self.to_error()
                if self.peer is not None:
                    self.peer.to_error()
                return
            if wr.signaled:
                self.send_cq.push(WC(wr.wr_id, _SEND_WC[wr.opcode],
                                     WCStatus.SUCCESS, byte_len=wr.sge.length,
                                     qp_num=self.qp_num))

    def _remote_phase(self, wr: SendWR, payload):
        dev = self.device
        cost = dev.cost
        peer = self.peer
        assert peer is not None
        rdev = peer.device
        sim = dev.sim
        n = wr.sge.length
        wire_latency = dev.fabric.params.wire_latency

        status = yield from self._transport_guard()
        if status is not WCStatus.SUCCESS:
            return status
        yield sim.timeout(wire_latency)
        yield from rdev.port.rx.use(rdev.port.wire_time(n) + cost.rx_nic)
        rdev.port.bytes_received += n

        if wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM):
            try:
                rdev.mr_for_rkey(wr.rkey, wr.remote_addr, n)
            except MemoryAccessError:
                return WCStatus.REM_ACCESS_ERR
            rdev.mem.write(wr.remote_addr, payload)
            rdev._notify_write(wr.remote_addr, n)

        if wr.opcode in (Opcode.SEND, Opcode.RDMA_WRITE_WITH_IMM):
            rwr, status = yield from self._claim_remote_recv()
            if status is not WCStatus.SUCCESS:
                return status
            assert rwr is not None
            if wr.opcode is Opcode.SEND:
                if n > rwr.sge.length:
                    peer.recv_cq.push(WC(rwr.wr_id, WCOpcode.RECV,
                                         WCStatus.LOC_LEN_ERR,
                                         qp_num=peer.qp_num))
                    return WCStatus.REM_ACCESS_ERR
                rdev.mem.write(rwr.sge.addr, payload)
                peer.recv_cq.push(WC(rwr.wr_id, WCOpcode.RECV,
                                     WCStatus.SUCCESS, byte_len=n,
                                     qp_num=peer.qp_num, addr=rwr.sge.addr))
            else:
                peer.recv_cq.push(WC(rwr.wr_id, WCOpcode.RECV_RDMA_WITH_IMM,
                                     WCStatus.SUCCESS, byte_len=n, imm=wr.imm,
                                     qp_num=peer.qp_num, addr=wr.remote_addr))

        # ACK propagation back to the sender NIC.
        yield sim.timeout(wire_latency)
        return WCStatus.SUCCESS

    def _claim_remote_recv(self):
        """Coroutine: take a recv WQE at the peer, honoring RNR retries."""
        peer = self.peer
        assert peer is not None
        cost = self.device.cost
        retries = 0
        while True:
            rwr = peer._take_recv()
            if rwr is not None:
                return rwr, WCStatus.SUCCESS
            if retries >= cost.rnr_retry_limit:
                return None, WCStatus.RNR_RETRY_EXC_ERR
            retries += 1
            yield self.device.sim.timeout(cost.rnr_timer)

    def _nic_read(self, wr: SendWR):
        dev = self.device
        cost = dev.cost
        peer = self.peer
        assert peer is not None
        rdev = peer.device
        sim = dev.sim
        n = wr.sge.length
        wire_latency = dev.fabric.params.wire_latency
        req = cost.read_request_bytes

        status = yield from self._transport_guard()
        if status is not WCStatus.SUCCESS:
            return status
        # Request message to the responder NIC.
        yield from dev.port.tx.use(cost.wqe_nic + dev.port.wire_time(req))
        yield sim.timeout(wire_latency)
        # Responder NIC services the READ in hardware: validate, DMA-read
        # local memory, inject the response.  No responder CPU involvement.
        yield from rdev.port.rx.use(rdev.port.wire_time(req) + cost.read_service_nic)
        try:
            rdev.mr_for_rkey(wr.rkey, wr.remote_addr, n)
        except MemoryAccessError:
            yield sim.timeout(wire_latency)  # NAK comes back
            return WCStatus.REM_ACCESS_ERR
        payload = rdev.mem.gather(wr.remote_addr, n)
        yield from rdev.port.tx.use(rdev.port.wire_time(n))
        rdev.port.bytes_sent += n
        rdev.port.messages_sent += 1
        yield sim.timeout(wire_latency)
        yield from dev.port.rx.use(dev.port.wire_time(n))
        dev.port.bytes_received += n
        dev.mem.write(wr.sge.addr, payload)
        return WCStatus.SUCCESS


def connect_pair(a: QP, b: QP) -> None:
    """Directly wire two QPs RTS<->RTS (test/bench helper; production code
    goes through :mod:`repro.verbs.cm`)."""
    if a.peer is not None or b.peer is not None:
        raise QPStateError("QP already connected")
    a.peer = b
    b.peer = a
    a.state = QPState.RTS
    b.state = QPState.RTS
