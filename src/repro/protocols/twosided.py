"""Two-sided protocols: Eager-SendRecv, Write-RNDV, Read-RNDV, Hybrid.

One endpoint (:class:`TwoSidedEndpoint`, both ends of every row below)
implements message delivery over a QP with two mechanisms and a size
threshold:

* **eager** -- the payload rides in the control SEND itself, landing in a
  pre-posted ring slot; a memcpy is charged on each side (into the send
  slot, out of the ring slot) -- the exact tradeoff of Fig. 3a;
* **rendezvous** -- metadata handshake then a zero-copy bulk transfer:
  *write* flavor (Fig. 3d): RTS -> CTS(addr,rkey) -> RDMA WRITE_WITH_IMM;
  *read* flavor (Fig. 3e): RTS(addr,rkey) -> target RDMA READs -> FIN.

The pure protocols are the endpoint pinned at one end of the threshold
(Eager-SendRecv: everything eager, with max-size ring slots -- the memory
footprint the paper's Section 4.3 warns about; Write/Read-RNDV: everything
rendezvous), and Hybrid-EagerRNDV is the 4 KB-threshold mix that HatRPC's
generated code uses as its general-purpose baseline.
"""

from __future__ import annotations

from typing import List, Optional

from repro.protocols.base import (
    CHECK_FAILED,
    HDR_BYTES,
    K_CTS,
    K_EAGER,
    K_FIN,
    K_RTS,
    ProtoConfig,
    ProtocolError,
    RecvRing,
    charge,
    check_length,
    check_wc,
    pack_ctrl,
    register_protocol,
)
from repro.verbs.device import Device, PD
from repro.verbs.qp import QP
from repro.verbs.types import Opcode, SendWR, Sge, WC, WCOpcode

__all__ = ["TwoSidedEndpoint"]


class TwoSidedEndpoint:
    """Eager + rendezvous messaging over one QP (single outstanding each way).

    ``eager`` names the :class:`ProtoConfig` field that bounds an eager
    message -- and so sizes the ring and send slots -- or is None for a pure
    rendezvous protocol (header-only slots); ``flavor`` is the rendezvous.
    """

    def __init__(self, device: Device, pd: PD, qp: QP, cfg: ProtoConfig,
                 eager: Optional[str], flavor: str):
        if flavor not in ("write", "read"):
            raise ValueError(f"unknown rendezvous flavor {flavor!r}")
        self.device = device
        self.pd = pd
        self.qp = qp
        self.cfg = cfg
        self.eager_limit = getattr(cfg, eager) if eager else -1
        self.flavor = flavor
        self._inbox: List[bytes] = []
        self._cts: Optional[tuple] = None
        self._fin: Optional[int] = None
        self._seq = 0
        self._slot_bytes = HDR_BYTES + max(self.eager_limit, 0)
        # One send slot per in-flight message (seq picks the slot), so a
        # pipelined window never rewrites a slot whose SEND is still being
        # sourced.  window=1 keeps the classic single-slot geometry.
        self._send_slots = [pd.reg_mr(self._slot_bytes)
                            for _ in range(max(1, cfg.window))]

    def blob(self) -> bytes:
        """Nothing is pre-known: rendezvous metadata travels per message."""
        return b""

    def set_peer(self, blob: bytes) -> None:
        pass

    def setup(self):
        """Coroutine: register the receive half and pre-post the ring.  (The
        SRQ server never calls this on its connections' endpoints: their
        receive half is the shared pool, and they only ever send eagerly.)"""
        self._staging = self.pd.reg_mr(self.cfg.max_msg)   # rendezvous source
        self._landing = self.pd.reg_mr(self.cfg.max_msg)   # rendezvous sink
        self._ring = RecvRing(self.pd, self.qp, self.cfg.ring_slots,
                              self._slot_bytes)
        yield from self._ring.post_all()

    # -- send path ---------------------------------------------------------
    def send_msg(self, data: bytes):
        """Coroutine: deliver one message to the peer."""
        self._seq += 1
        seq = self._seq
        n = len(data)
        if n <= self.eager_limit:
            # The copy into the send slot (the eager cost) and the SEND are
            # one CPU job.
            yield from self._send(seq, pack_ctrl(K_EAGER, seq, n) + data, (
                self.device.copy_time(n, self.cfg.numa_local),))
            return
        # The copy into the rendezvous staging buffer is a job of its own:
        # as a piece of the RTS post's job it would reorder same-instant
        # ties in the read rendezvous's Fig. 5 cells.
        yield from self.device.memcpy(n, self.cfg.numa_local)
        self._staging.write(data)
        if self.flavor == "write":
            yield from self._send(seq, pack_ctrl(K_RTS, seq, n))
            addr, rkey = yield from self._await_cts(seq)
            yield from self.qp.post_send(
                SendWR(Opcode.RDMA_WRITE_WITH_IMM,
                       Sge(self._staging.addr, n, self._staging.lkey),
                       remote_addr=addr, rkey=rkey, imm=seq, signaled=False),
                numa_local=self.cfg.numa_local)
        else:
            yield from self._send(seq, pack_ctrl(K_RTS, seq, n,
                                                 self._staging.addr,
                                                 self._staging.rkey))
            # The peer READs the staging buffer until it sends FIN.
            yield from self._await_fin(seq)
        self._staging.discard(self._staging.length)

    def _send(self, seq: int, message: bytes, before: tuple = ()):
        """Coroutine: SEND a control header (+ eager payload) out of the
        send slot of message ``seq``, ``before`` charged with the post."""
        slot = self._send_slots[(seq - 1) % len(self._send_slots)]
        slot.write(message)
        yield from self.qp.post_send(
            SendWR(Opcode.SEND, Sge(slot.addr, len(message), slot.lkey),
                   signaled=False),
            numa_local=self.cfg.numa_local, before=before)
        slot.discard(slot.length)       # the post gathered it

    # -- receive path --------------------------------------------------------
    def recv_msg(self):
        """Coroutine: the next application message from the peer."""
        while not self._inbox:
            yield from self._pump()
        return self._inbox.pop(0)

    def _await_cts(self, seq: int):
        while self._cts is None or self._cts[0] != seq:
            yield from self._pump()
        addr, rkey = self._cts[1], self._cts[2]
        self._cts = None
        return addr, rkey

    def _await_fin(self, seq: int):
        while self._fin != seq:
            yield from self._pump()
        self._fin = None

    def _pump(self):
        """Coroutine: reap completions and handle them in order; the poll
        is the first piece of the first one's CPU job."""
        cq = self.qp.recv_cq
        mode = self.cfg.poll_mode
        wcs = yield from cq.reap(mode)
        before = (cq.poll_cost(mode),)
        for wc in wcs:
            yield from self._handle(wc, before)
            before = ()

    def _handle(self, wc: WC, before: tuple):
        """Coroutine: one receive completion.  ``before`` (the poll, for
        the first completion of a reap) is charged with the slot's re-post
        -- after its copy-out, for an eager message -- or with the READ
        post of a read rendezvous; alone if the completion or its header
        fails a check."""
        ring = self._ring
        try:
            check_wc(wc)
            if wc.opcode is WCOpcode.RECV_RDMA_WITH_IMM:
                kind = None
            else:
                kind, seq, length, addr, rkey = ring.header(wc.wr_id)
                if kind == K_RTS:
                    check_length(length, self.cfg.max_msg)
                elif kind == K_EAGER:
                    check_length(length, ring.capacity)
                elif kind != K_CTS and kind != K_FIN:
                    raise ProtocolError(f"unexpected control kind {kind}")
        except CHECK_FAILED:
            yield from charge(self.device, before)
            raise
        if kind is None:
            # Rendezvous (write flavor) payload landed in our landing buffer.
            self._inbox.append(self._take_landing(wc.byte_len))
        elif kind == K_EAGER:
            # Copy out so the slot can be re-posted (the eager cost).
            self._inbox.append(ring.read(wc.wr_id, length, offset=HDR_BYTES))
            before = (*before,
                      self.device.copy_time(length, self.cfg.numa_local))
        elif kind == K_RTS and self.flavor == "write":
            yield from ring.post(wc.wr_id, before)
            yield from self._send(seq, pack_ctrl(K_CTS, seq, length,
                                                 self._landing.addr,
                                                 self._landing.rkey))
            return
        elif kind == K_RTS:
            yield from self._read_payload(seq, length, addr, rkey, before)
            before = ()
        elif kind == K_CTS:
            self._cts = (seq, addr, rkey)
        else:
            self._fin = seq
        yield from ring.post(wc.wr_id, before)

    def _read_payload(self, seq: int, length: int, addr: int, rkey: int,
                      before: tuple):
        yield from self.qp.post_send(
            SendWR(Opcode.RDMA_READ,
                   Sge(self._landing.addr, length, self._landing.lkey),
                   remote_addr=addr, rkey=rkey, wr_id=seq),
            numa_local=self.cfg.numa_local, before=before)
        wcs = yield from self.qp.send_cq.wait(self.cfg.poll_mode)
        for wc in wcs:
            check_wc(wc)
        self._inbox.append(self._take_landing(length))
        yield from self._send(seq, pack_ctrl(K_FIN, seq, length))

    def _take_landing(self, length: int) -> bytes:
        """The rendezvous payload, read out of the landing buffer, which is
        then released."""
        data = self._landing.read(length)
        self._landing.discard(self._landing.length)
        return data


# Pure eager has no per-call rendezvous state (the single-valued _cts/_fin
# latches make the rndv/hybrid flavors pipeline-unsafe), so overlapped sends
# are fine once send slots rotate per seq.
register_protocol("eager_sendrecv", TwoSidedEndpoint, TwoSidedEndpoint,
                  pipelining=True, eager="max_msg", flavor="write")
register_protocol("write_rndv", TwoSidedEndpoint, TwoSidedEndpoint,
                  eager=None, flavor="write")
register_protocol("read_rndv", TwoSidedEndpoint, TwoSidedEndpoint,
                  eager=None, flavor="read")
register_protocol("hybrid_eager_rndv", TwoSidedEndpoint, TwoSidedEndpoint,
                  eager="eager_threshold", flavor="write")
# Eager below the threshold, Read-RNDV above: AR-gRPC's adaptive scheme [18]
# ('AR-gRPC only provides eager or read rendezvous').
register_protocol("hybrid_eager_readrndv", TwoSidedEndpoint, TwoSidedEndpoint,
                  eager="eager_threshold", flavor="read")
