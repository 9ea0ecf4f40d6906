"""Direct-write protocols: pre-known remote buffers (Fig. 3b, 3c, 3f).

All three variants WRITE the payload (with a 32-byte in-buffer header)
directly into a per-connection buffer the peer registered and advertised at
connection time; they differ only in how the peer learns the data is there:

* **Direct-Write-Send** -- a separate SEND notify: two ibv_post_send calls,
  hence two MMIO doorbells per message;
* **Chained-Write-Send** -- WRITE and SEND chained into one post call: one
  doorbell (the optimization of [25, 36, 37]);
* **Direct-WriteIMM** -- a single RDMA WRITE_WITH_IMM: one WR carrying both
  data and notification (the paper's best small-message protocol).

The cost of the family (Section 4.3): the remote buffer is pinned for the
lifetime of the connection and sized for the largest message, so registered
memory grows with connection count -- visible in ``device.registered_bytes``
and penalized by the ``res_util`` hint.
"""

from __future__ import annotations

import struct

from repro.protocols.base import (
    CHECK_FAILED,
    HDR_BYTES,
    K_NOTIFY,
    ProtoConfig,
    ProtocolError,
    RecvRing,
    charge,
    check_length,
    check_wc,
    pack_ctrl,
    register_protocol,
    unpack_ctrl,
)
from repro.verbs.device import Device, PD
from repro.verbs.qp import QP
from repro.verbs.types import Opcode, SendWR, Sge, WCOpcode

__all__ = ["DirectWriteEndpoint"]

#: blob exchanged via CM private_data: inbuf addr + rkey.
_BLOB = struct.Struct("<QI")

# Notify flavors.
F_SEPARATE = "separate"   # WRITE, then SEND (two doorbells)
F_CHAINED = "chained"     # WRITE -> SEND chained (one doorbell)
F_IMM = "imm"             # WRITE_WITH_IMM (one WR, imm carries the length)


class DirectWriteEndpoint:
    """One side of a direct-write connection (both ends of every row
    below); ``flavor`` is how the peer is notified."""

    def __init__(self, device: Device, pd: PD, qp: QP, cfg: ProtoConfig,
                 flavor: str):
        if flavor not in (F_SEPARATE, F_CHAINED, F_IMM):
            raise ValueError(f"unknown direct-write flavor {flavor!r}")
        self.device = device
        self.pd = pd
        self.qp = qp
        self.cfg = cfg
        self.flavor = flavor
        self._seq = 0
        self._rseq = 0
        # One wire slot per in-flight message: slot k serves sequence
        # numbers k (mod slots), so a window of cfg.window messages never
        # overlaps in either peer's buffers.  window=1 (the default)
        # collapses to the classic single-slot geometry, byte for byte.
        self.slots = max(1, cfg.window)
        self._stride = HDR_BYTES + cfg.max_msg
        # Inbound message buffer, advertised to the peer.
        self.inbuf = pd.reg_mr(self.slots * self._stride)
        # Staging for outbound WRITE sources + the tiny notify messages.
        self._staging = pd.reg_mr(self.slots * self._stride)
        self._notify = pd.reg_mr(self.slots * HDR_BYTES)
        self.peer_addr = 0
        self.peer_rkey = 0

    def blob(self) -> bytes:
        return _BLOB.pack(self.inbuf.addr, self.inbuf.rkey)

    def set_peer(self, blob: bytes) -> None:
        self.peer_addr, self.peer_rkey = _BLOB.unpack_from(blob)

    def setup(self):
        """Coroutine: pre-post the notify receive ring.

        For the IMM flavor nothing is written to a ring slot (the payload
        lands in the inbuf); for SEND flavors a slot carries the 32-byte
        notify message.
        """
        self._ring = RecvRing(self.pd, self.qp, self.cfg.ring_slots, HDR_BYTES)
        yield from self._ring.post_all()

    # -- send ---------------------------------------------------------------
    def send_msg(self, data: bytes):
        """Coroutine: WRITE header+payload to the peer's inbuf, then notify."""
        self._seq += 1
        seq = self._seq
        off = ((seq - 1) % self.slots) * self._stride
        n = len(data)
        self._staging.write(pack_ctrl(K_NOTIFY, seq, n) + data, offset=off)
        # The copy into the staging slot and the first post are one job.
        copy = (self.device.copy_time(n, self.cfg.numa_local),)
        total = HDR_BYTES + n
        if self.flavor == F_IMM:
            yield from self.qp.post_send(
                SendWR(Opcode.RDMA_WRITE_WITH_IMM,
                       Sge(self._staging.addr + off, total,
                           self._staging.lkey),
                       remote_addr=self.peer_addr + off, rkey=self.peer_rkey,
                       imm=seq, signaled=False),
                numa_local=self.cfg.numa_local, before=copy)
            # The post gathered the WRITE's source: release its slot.
            self._staging.discard(self._stride, offset=off)
            return
        write = SendWR(Opcode.RDMA_WRITE,
                       Sge(self._staging.addr + off, total,
                           self._staging.lkey),
                       remote_addr=self.peer_addr + off, rkey=self.peer_rkey,
                       signaled=False)
        noff = ((seq - 1) % self.slots) * HDR_BYTES
        self._notify.write(pack_ctrl(K_NOTIFY, seq, n), offset=noff)
        notify = SendWR(Opcode.SEND,
                        Sge(self._notify.addr + noff, HDR_BYTES,
                            self._notify.lkey),
                        signaled=False)
        if self.flavor == F_CHAINED:
            write.next = notify                      # one doorbell
            yield from self.qp.post_send(write, numa_local=self.cfg.numa_local,
                                         before=copy)
        else:
            yield from self.qp.post_send(write, numa_local=self.cfg.numa_local,
                                         before=copy)
            yield from self.qp.post_send(notify, numa_local=self.cfg.numa_local)
        # Likewise; the notify header is kept: a chained SEND is gathered
        # only once the WRITE before it has left the NIC.
        self._staging.discard(self._stride, offset=off)

    # -- receive --------------------------------------------------------------
    def recv_msg(self):
        """Coroutine: next inbound message (read in place from inbuf).  The
        poll and the ring re-post are one CPU job; a completion or header
        that fails its checks pays the poll alone."""
        cq = self.qp.recv_cq
        mode = self.cfg.poll_mode
        wcs = yield from cq.reap(mode, max_wc=1)
        poll = (cq.poll_cost(mode),)
        try:
            wc = check_wc(wcs[0])
            self._rseq += 1
            if wc.opcode is WCOpcode.RECV_RDMA_WITH_IMM:
                # The IMM carries the sender's seq -> our slot (RC delivery
                # is in-order, so the local counter agrees; the IMM is the
                # authoritative copy).
                seq = wc.imm or self._rseq
                off = ((seq - 1) % self.slots) * self._stride
                kind, seq, length, _a, _k = unpack_ctrl(
                    self.inbuf.read(HDR_BYTES, offset=off))
            else:
                kind, seq, length, _a, _k = self._ring.header(wc.wr_id)
                off = ((seq - 1) % self.slots) * self._stride
            if kind != K_NOTIFY:
                raise ProtocolError(f"unexpected control kind {kind}")
            # Longer would read on into the next slot (or out of the buffer).
            check_length(length, self.cfg.max_msg)
        except CHECK_FAILED:
            yield from charge(self.device, poll)
            raise
        yield from self._ring.post(wc.wr_id, poll)
        # Payload is already in our inbuf -- read in place, no copy charged;
        # then its slot is released.
        data = self.inbuf.read(length, offset=off + HDR_BYTES)
        self.inbuf.discard(self._stride, offset=off)
        return data


# Per-call wire slots are stateless between calls (slot = seq mod window on
# both peers), so send and receive halves overlap freely.
register_protocol("direct_write_send", DirectWriteEndpoint, DirectWriteEndpoint,
                  pipelining=True, flavor=F_SEPARATE)
register_protocol("chained_write_send", DirectWriteEndpoint, DirectWriteEndpoint,
                  pipelining=True, flavor=F_CHAINED)
register_protocol("direct_writeimm", DirectWriteEndpoint, DirectWriteEndpoint,
                  pipelining=True, flavor=F_IMM)
