"""Server-bypass protocols: Pilaf, FaRM, RFP (Fig. 3g-3i).

The family's signature move is fetching the *response* with one-sided RDMA
READs, so the server CPU never posts a send -- the paper's Section 3.2 notes
that serving an inbound RDMA op is much cheaper than issuing an outbound one,
which is why RFP wins the high-concurrency large-message regime (Fig. 5).

* **Pilaf** [46]: requests travel by SEND; responses cost ~3 READs (two
  metadata lookups + one payload fetch, after [59]'s measurement of ~3.2
  READs/GET);
* **FaRM** [23]: requests are WRITTEN into a server ring that the server CPU
  *memory-polls*; responses cost >=2 READs (index entry + value);
* **RFP** [59]: requests are WRITTEN and memory-polled; the response is
  speculatively fetched with a single READ of a fixed-size slot, with a
  follow-up READ only when the response overflows the slot.

The family is asymmetric, so each row names two endpoint classes: the
server end sinks requests and publishes responses into registered memory
(:class:`BypassServerEnd`), the client end delivers requests and fetches
responses (:class:`BypassClientEnd`; RFP's speculative READ and HERD's
SEND-back responses are the only overrides).

Memory polling is modeled by :meth:`repro.verbs.device.Device.watch_memory`:
the poller holds a CPU spin token (busy discipline) or sleeps between
wake-ups (event discipline) and is woken the instant an inbound WRITE lands.
"""

from __future__ import annotations

import struct

from repro.protocols.base import (
    CHECK_FAILED,
    HDR_BYTES,
    K_EAGER,
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
from repro.sim.units import KiB
from repro.verbs.cq import PollMode
from repro.verbs.device import Device, PD
from repro.verbs.qp import QP
from repro.verbs.types import Opcode, SendWR, Sge

__all__ = ["MemPoller"]

#: server blob: reqbuf addr/rkey + respbuf addr/rkey.
_BLOB = struct.Struct("<QIQI")

REQ_SEND = "send"     # Pilaf: eager SEND
REQ_WRITE = "write"   # FaRM/RFP: RDMA WRITE + memory polling

#: HERD's response-slot size (its design targets small messages).  Real
#: HERD ships bare values, so its slots need only fit the KV unit (1 KB
#: under YCSB); the emulation routes Thrift-framed messages through the
#: same transport, so the slot carries ~40 B of RPC framing on top.  Size
#: it to hold one value plus that framing -- otherwise a single GET pays
#: a two-chunk penalty real HERD never would, while MultiGET responses
#: (~10 KB) still chunk ~10x, which is the collapse the paper reports.
HERD_RESP_SLOT = 1088

#: reply bytes RFP's speculative READ fetches with the header.  A longer
#: reply costs one more READ for its tail; a larger probe would waste wire
#: on every not-ready retry.
RFP_FIRST_READ = 4 * KiB


class MemPoller:
    """CPU-side polling of a memory range for inbound WRITEs."""

    def __init__(self, device: Device, addr: int, length: int,
                 mode: PollMode):
        self.device = device
        self.mode = mode
        self.watch = device.watch_memory(addr, length)

    def wait(self, ready) -> "generator":
        """Coroutine: return once ``ready()`` is true.

        Busy mode holds a spin token (a core burned while waiting); event
        mode sleeps between wake-ups, each woken ``interrupt_latency`` after
        the WRITE lands (one heap entry).
        """
        cost = self.device.cost
        cpu = self.device.node.cpu
        if ready():
            yield cpu.compute(cost.poll_cpu)
            return
        if self.mode is PollMode.BUSY:
            tok = cpu.spin_begin()
            try:
                while not ready():
                    yield self.watch.gate.wait()
            finally:
                cpu.spin_end(tok)
        else:
            while not ready():
                yield self.watch.gate.wait(cost.interrupt_latency)
        yield cpu.compute(cost.poll_cpu)


class BypassServerEnd:
    """Server end: request sink, response slab, polling machinery.

    A published reply stays in the response slab (``respbuf``) until the
    connection's next request is read (:meth:`_retire_reply`).
    ``metadata_reads`` is the client end's business; it is accepted because
    both ends are built from one row.
    """

    def __init__(self, device: Device, pd: PD, qp: QP, cfg: ProtoConfig,
                 request_path: str, metadata_reads: int):
        self.device = device
        self.pd = pd
        self.qp = qp
        self.cfg = cfg
        self.request_path = request_path
        self.reqbuf = pd.reg_mr(HDR_BYTES + cfg.max_msg)
        self.respbuf = pd.reg_mr(HDR_BYTES + cfg.max_msg)
        self._last_seq = 0
        self._poller = None
        if request_path == REQ_WRITE:
            self._poller = MemPoller(device, self.reqbuf.addr,
                                     self.reqbuf.length, cfg.poll_mode)

    def blob(self) -> bytes:
        return _BLOB.pack(self.reqbuf.addr, self.reqbuf.rkey,
                          self.respbuf.addr, self.respbuf.rkey)

    def set_peer(self, blob: bytes) -> None:
        """The client advertises nothing: every one-sided op is its own."""

    def setup(self):
        """Coroutine: pre-post the SEND request ring (Pilaf only) -- one MR,
        slot *i* at ``i * (HDR_BYTES + max_msg)``."""
        if self.request_path == REQ_SEND:
            self._ring = RecvRing(self.pd, self.qp, self.cfg.ring_slots,
                                  HDR_BYTES + self.cfg.max_msg)
            yield from self._ring.post_all()

    def recv_msg(self):
        """Coroutine: next request bytes."""
        if self.request_path == REQ_SEND:
            cq = self.qp.recv_cq
            mode = self.cfg.poll_mode
            wcs = yield from cq.reap(mode, max_wc=1)
            poll = cq.poll_cost(mode)
            ring = self._ring
            try:
                wc = check_wc(wcs[0])
                kind, seq, length, _a, _k = ring.header(wc.wr_id)
                if kind != K_EAGER:
                    raise ProtocolError(f"unexpected control kind {kind}")
                check_length(length, ring.capacity)
            except CHECK_FAILED:
                yield from charge(self.device, (poll,))
                raise
            # Copy out so the ring slot can be re-posted: the poll, the
            # copy-out and the re-post are one CPU job.
            data = ring.read(wc.wr_id, length, offset=HDR_BYTES)
            yield from ring.post(wc.wr_id, (
                poll, self.device.copy_time(length, self.cfg.numa_local)))
            self._last_seq = seq
            self._retire_reply()
            return data

        def ready() -> bool:
            kind, seq, _l, _a, _k = unpack_ctrl(self.reqbuf.read(HDR_BYTES))
            return kind == K_NOTIFY and seq > self._last_seq

        yield from self._poller.wait(ready)
        kind, seq, length, _a, _k = unpack_ctrl(self.reqbuf.read(HDR_BYTES))
        check_length(length, self.cfg.max_msg)
        self._last_seq = seq
        # Request is consumed in place (no copy) -- the WRITE-path advantage;
        # it is the client's own request object.  Releasing the buffer
        # zeroes the header too, so ``ready()`` waits for the next WRITE.
        request = self.reqbuf.read(length, offset=HDR_BYTES)
        self.reqbuf.discard(self.reqbuf.length)
        self._retire_reply()
        return request

    def _retire_reply(self) -> None:
        """Release the previous reply: the connection's next request has
        been read.  Every READ of that reply was posted before the request
        on the same QP -- even one of a call abandoned mid-fetch -- and RC
        serves one QP's operations in order, so each was served, its bytes
        gathered, before the request landed."""
        self.respbuf.discard(self.respbuf.length)

    def send_msg(self, resp: bytes):
        """Coroutine: place the response where the client will READ it.

        Pure CPU work (one copy into the registered slab, header last);
        no NIC operation is issued -- that is the whole point of the family.
        """
        yield from self.device.memcpy(len(resp), self.cfg.numa_local)
        self.respbuf.write(resp, offset=HDR_BYTES)
        self.respbuf.write(pack_ctrl(K_NOTIFY, self._last_seq, len(resp)))


class BypassClientEnd:
    """Client end: request delivery and the one-sided response fetch.

    ``metadata_reads`` is the number of READs used to locate the response
    before the payload fetch.
    """

    def __init__(self, device: Device, pd: PD, qp: QP, cfg: ProtoConfig,
                 request_path: str, metadata_reads: int):
        self.device = device
        self.pd = pd
        self.qp = qp
        self.cfg = cfg
        self.request_path = request_path
        self.metadata_reads = metadata_reads
        self._staging = pd.reg_mr(HDR_BYTES + cfg.max_msg)
        self._fetch = pd.reg_mr(HDR_BYTES + cfg.max_msg)
        self._seq = 0
        self._reads = 0     # READs posted: each one's wr_id

    def blob(self) -> bytes:
        return b""

    def set_peer(self, blob: bytes) -> None:
        (self._req_addr, self._req_rkey,
         self._resp_addr, self._resp_rkey) = _BLOB.unpack_from(blob)

    def setup(self):
        return
        yield  # pragma: no cover

    # -- request delivery ------------------------------------------------------
    def send_msg(self, request: bytes):
        """Coroutine: copy the request into the staging slot and post it.

        The copy is a job of its own, not a piece of the post's: as one
        job the post would take its heap number at the copy's start, which
        reorders same-instant ties in Pilaf's Fig. 5 cells."""
        self._seq += 1
        yield from self.device.memcpy(len(request), self.cfg.numa_local)
        staging = self._staging
        sge = Sge(staging.addr, HDR_BYTES + len(request), staging.lkey)
        if self.request_path == REQ_WRITE:
            kind = K_NOTIFY
            wr = SendWR(Opcode.RDMA_WRITE, sge, remote_addr=self._req_addr,
                        rkey=self._req_rkey, signaled=False)
        else:
            kind = K_EAGER      # Pilaf: plain eager SEND
            wr = SendWR(Opcode.SEND, sge, signaled=False)
        # Header and request are two extents, so the request object is what
        # the server's ``recv_msg`` reads back.
        staging.write(pack_ctrl(kind, self._seq, len(request)))
        staging.write(request, offset=HDR_BYTES)
        yield from self.qp.post_send(wr, numa_local=self.cfg.numa_local)
        staging.discard(staging.length)     # the post gathered it

    # -- one-sided response fetch -------------------------------------------------
    def _read(self, length: int, remote_off: int = 0, local_off: int = 0):
        self._reads += 1
        wr_id = self._reads
        yield from self.qp.post_send(
            SendWR(Opcode.RDMA_READ,
                   Sge(self._fetch.addr + local_off, length, self._fetch.lkey),
                   wr_id=wr_id, remote_addr=self._resp_addr + remote_off,
                   rkey=self._resp_rkey),
            numa_local=self.cfg.numa_local)
        # A READ of a call abandoned mid-fetch (a deadline) completes first:
        # one QP's READs land in posting order, so its bytes are overwritten
        # by this call's READs and its completion is passed over.
        while True:
            wcs = yield from self.qp.send_cq.wait(self.cfg.poll_mode,
                                                  max_wc=1)
            if check_wc(wcs[0]).wr_id == wr_id:
                return

    def _await_published(self, probe: int):
        """Coroutine: ``metadata_reads`` READs of the first ``probe`` bytes
        of the response slab, retried until the server has published our
        seq; returns the response length.  Failed polls back off so retry
        traffic cannot melt the server NIC."""
        backoff = 1e-6
        while True:
            for _ in range(self.metadata_reads):
                yield from self._read(probe)
            kind, seq, length, _a, _k = unpack_ctrl(
                self._fetch.read(HDR_BYTES))
            if kind == K_NOTIFY and seq == self._seq:
                return check_length(length, self.cfg.max_msg)
            # Not published yet: the READ brought back the previous reply,
            # or part of it, which the backoff must not keep alive.
            self._fetch.discard(self._fetch.length)
            yield self.device.sim.timeout(backoff)
            backoff = min(backoff * 2, 16e-6)

    def _take_reply(self, length: int) -> bytes:
        """The reply, read out of the fetch buffer, which is then released.
        (The server's ``respbuf`` keeps it until this connection's next
        request is read: nothing else tells the server that the READs are
        done.)"""
        reply = self._fetch.read(length, offset=HDR_BYTES)
        self._fetch.discard(self._fetch.length)
        return reply

    def recv_msg(self):
        length = yield from self._await_published(16)
        yield from self._read(length, remote_off=HDR_BYTES,
                              local_off=HDR_BYTES)
        return self._take_reply(length)


class RfpClientEnd(BypassClientEnd):
    """RFP: speculative single-READ fetch of header+payload together.

    Failed speculations (server not done yet) back off exponentially --
    RFP's own design throttles clients that poll too eagerly ("falls back"
    per [59]); without this, many clients re-READing full slots melt the
    server's NIC with retry traffic.
    """

    def recv_msg(self):
        slot = RFP_FIRST_READ
        length = yield from self._await_published(
            min(HDR_BYTES + slot, self._fetch.length))
        if length > slot:
            # Fallback READ for the overflow tail.
            yield from self._read(length - slot,
                                  remote_off=HDR_BYTES + slot,
                                  local_off=HDR_BYTES + slot)
        return self._take_reply(length)


class HerdClientEnd(BypassClientEnd):
    """HERD [36]: requests WRITTEN into a memory-polled server region,
    responses pushed back with (small) SENDs.

    HERD's responses ride unreliable-datagram SENDs sized for small
    messages; large responses are chunked at ``HERD_RESP_SLOT`` bytes, each
    chunk costing the server a post_send and the client a ring-slot copy --
    which is exactly why HERD struggles on GET/MultiGET in the paper's YCSB
    evaluation (Section 5.4).
    """

    def setup(self):
        self._ring = RecvRing(self.pd, self.qp, self.cfg.ring_slots,
                              HDR_BYTES + HERD_RESP_SLOT)
        yield from self._ring.post_all()

    def recv_msg(self):
        chunks = {}
        total = None
        got = 0
        cq = self.qp.recv_cq
        mode = self.cfg.poll_mode
        ring = self._ring
        while total is None or got < total:
            wcs = yield from cq.reap(mode, max_wc=4)
            # The poll, a chunk's copy-out and its slot's re-post are one
            # CPU job (the poll rides with the first chunk of the reap).
            before = (cq.poll_cost(mode),)
            for wc in wcs:
                try:
                    check_wc(wc)
                    kind, seq, length, offset, _k = ring.header(wc.wr_id)
                    if kind != K_NOTIFY or seq != self._seq:
                        raise ProtocolError("unexpected HERD response chunk")
                    payload_len = wc.byte_len - HDR_BYTES
                    check_length(length, self.cfg.max_msg)
                    check_length(offset + payload_len, length)  # chunk fits
                except CHECK_FAILED:
                    yield from charge(self.device, before)
                    raise
                chunks[offset] = ring.read(wc.wr_id, payload_len,
                                           offset=HDR_BYTES)
                total = length
                got += payload_len
                yield from ring.post(wc.wr_id, (
                    *before,
                    self.device.copy_time(payload_len, self.cfg.numa_local)))
                before = ()
        return b"".join(chunks[off] for off in sorted(chunks))


class HerdServerEnd(BypassServerEnd):
    """HERD's server end: the response goes back as chunked SENDs instead
    of being published for the client to READ."""

    def setup(self):
        self._staging = self.pd.reg_mr(HDR_BYTES + HERD_RESP_SLOT)
        yield from super().setup()

    def send_msg(self, resp: bytes):
        # Chunked SEND response: one post per HERD_RESP_SLOT bytes.
        seq = self._last_seq
        staging = self._staging
        off = 0
        sent_any = False
        while off < len(resp) or not sent_any:
            chunk = resp[off:off + HERD_RESP_SLOT]
            # header 'addr' field doubles as the chunk offset
            staging.write(pack_ctrl(K_NOTIFY, seq, len(resp), addr=off)
                          + chunk)
            # The copy into the staging slot and the post are one job.
            yield from self.qp.post_send(
                SendWR(Opcode.SEND,
                       Sge(staging.addr, HDR_BYTES + len(chunk),
                           staging.lkey), signaled=True),
                numa_local=self.cfg.numa_local,
                before=(self.device.copy_time(len(chunk),
                                              self.cfg.numa_local),))
            staging.discard(staging.length)     # the post gathered it
            # Reuse of the staging slot requires the previous SEND done.
            wcs = yield from self.qp.send_cq.wait(self.cfg.poll_mode,
                                                  max_wc=1)
            check_wc(wcs[0])
            off += len(chunk)
            sent_any = True


register_protocol("pilaf", BypassClientEnd, BypassServerEnd,
                  request_path=REQ_SEND, metadata_reads=2)  # hash bucket + entry validation
register_protocol("farm", BypassClientEnd, BypassServerEnd,
                  request_path=REQ_WRITE, metadata_reads=1)  # index entry
register_protocol("rfp", RfpClientEnd, BypassServerEnd,
                  request_path=REQ_WRITE, metadata_reads=1)  # the speculative READ
register_protocol("herd", HerdClientEnd, HerdServerEnd,
                  request_path=REQ_WRITE, metadata_reads=0)  # responses are SENT
