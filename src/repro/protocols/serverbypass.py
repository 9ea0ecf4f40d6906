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

Memory polling is modeled by :meth:`repro.verbs.device.Device.watch_memory`:
the poller holds a CPU spin token (busy discipline) or sleeps between
wake-ups (event discipline) and is woken the instant an inbound WRITE lands.
"""

from __future__ import annotations

import struct

from repro.protocols.base import (
    HDR_BYTES,
    K_EAGER,
    K_NOTIFY,
    ProtoConfig,
    ProtocolError,
    RecvRing,
    RpcClient,
    RpcServer,
    check_wc,
    pack_ctrl,
    register_protocol,
    unpack_ctrl,
)
from repro.verbs.cq import PollMode
from repro.verbs.device import Device, PD
from repro.verbs.qp import QP
from repro.verbs.types import Opcode, SendWR, Sge

__all__ = ["MemPoller"]

#: server blob: reqbuf addr/rkey + respbuf addr/rkey.
_BLOB = struct.Struct("<QIQI")

REQ_SEND = "send"     # Pilaf: eager SEND
REQ_WRITE = "write"   # FaRM/RFP: RDMA WRITE + memory polling


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
        mode sleeps between wake-ups, paying the wakeup latency instead.
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
                yield self.watch.gate.wait()
                yield self.device.sim.timeout(cost.interrupt_latency)
        yield cpu.compute(cost.poll_cpu)


class BypassEndpoint:
    """Server-side state: request sink, response slab, polling machinery."""

    def __init__(self, device: Device, pd: PD, qp: QP, cfg: ProtoConfig,
                 request_path: str):
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

    def setup(self):
        """Coroutine: pre-post the SEND request ring (Pilaf only) -- one MR,
        slot *i* at ``i * (HDR_BYTES + max_msg)``."""
        if self.request_path == REQ_SEND:
            self._ring = RecvRing(self.pd, self.qp, self.cfg.ring_slots,
                                  HDR_BYTES + self.cfg.max_msg)
            yield from self._ring.post_all()

    # -- server receive ------------------------------------------------------
    def recv_request(self):
        """Coroutine: next request bytes."""
        if self.request_path == REQ_SEND:
            wcs = yield from self.qp.recv_cq.wait(self.cfg.poll_mode, max_wc=1)
            wc = check_wc(wcs[0])
            ring = self._ring
            kind, seq, length, _a, _k = unpack_ctrl(
                ring.read(wc.wr_id, HDR_BYTES))
            if kind != K_EAGER:
                raise ProtocolError(f"unexpected control kind {kind}")
            # Copy out so the ring slot can be re-posted.
            yield from self.device.memcpy(length, self.cfg.numa_local)
            data = ring.read(wc.wr_id, length, offset=HDR_BYTES)
            yield from ring.post(wc.wr_id)
            self._last_seq = seq
            return data

        def ready() -> bool:
            kind, seq, _l, _a, _k = unpack_ctrl(self.reqbuf.read(HDR_BYTES))
            return kind == K_NOTIFY and seq > self._last_seq

        yield from self._poller.wait(ready)
        kind, seq, length, _a, _k = unpack_ctrl(self.reqbuf.read(HDR_BYTES))
        self._last_seq = seq
        # Request is consumed in place (no copy) -- the WRITE-path advantage.
        return self.reqbuf.read(length, offset=HDR_BYTES)

    def publish_response(self, resp: bytes):
        """Coroutine: place the response where the client will READ it.

        Pure CPU work (one copy into the registered slab, header last);
        no NIC operation is issued -- that is the whole point of the family.
        """
        yield from self.device.memcpy(len(resp), self.cfg.numa_local)
        self.respbuf.write(resp, offset=HDR_BYTES)
        self.respbuf.write(pack_ctrl(K_NOTIFY, self._last_seq, len(resp)))


class _BypassClient(RpcClient):
    request_path = REQ_WRITE
    #: READs used to locate the response before the payload fetch.
    metadata_reads = 1

    def _setup_blob(self) -> bytes:
        return b""

    def _finish_setup(self, peer_blob: bytes) -> None:
        (self._req_addr, self._req_rkey,
         self._resp_addr, self._resp_rkey) = _BLOB.unpack_from(peer_blob)
        self._staging = self.pd.reg_mr(HDR_BYTES + self.cfg.max_msg)
        self._fetch = self.pd.reg_mr(HDR_BYTES + self.cfg.max_msg)
        self._seq = 0

    # -- request delivery ------------------------------------------------------
    def _send_request(self, request: bytes):
        self._seq += 1
        yield from self.device.memcpy(len(request), self.cfg.numa_local)
        self._staging.write(pack_ctrl(K_NOTIFY, self._seq, len(request))
                            + request)
        total = HDR_BYTES + len(request)
        if self.request_path == REQ_WRITE:
            yield from self.qp.post_send(
                SendWR(Opcode.RDMA_WRITE,
                       Sge(self._staging.addr, total, self._staging.lkey),
                       remote_addr=self._req_addr, rkey=self._req_rkey,
                       signaled=False),
                numa_local=self.cfg.numa_local)
        else:
            # Pilaf: plain eager SEND; rewrite the header kind.
            self._staging.write(pack_ctrl(K_EAGER, self._seq, len(request)))
            yield from self.qp.post_send(
                SendWR(Opcode.SEND,
                       Sge(self._staging.addr, total, self._staging.lkey),
                       signaled=False),
                numa_local=self.cfg.numa_local)

    # -- one-sided response fetch -------------------------------------------------
    def _read(self, length: int, remote_off: int = 0, local_off: int = 0):
        yield from self.qp.post_send(
            SendWR(Opcode.RDMA_READ,
                   Sge(self._fetch.addr + local_off, length, self._fetch.lkey),
                   remote_addr=self._resp_addr + remote_off,
                   rkey=self._resp_rkey),
            numa_local=self.cfg.numa_local)
        wcs = yield from self.scq.wait(self.cfg.poll_mode, max_wc=1)
        check_wc(wcs[0])

    def _fetch_response(self, resp_hint: int):
        # Metadata READ(s), retried until the server has published our seq;
        # failed polls back off so retry traffic cannot melt the server NIC.
        backoff = 1e-6
        while True:
            for _ in range(self.metadata_reads):
                yield from self._read(16)
            kind, seq, length, _a, _k = unpack_ctrl(
                self._fetch.read(HDR_BYTES))
            if kind == K_NOTIFY and seq == self._seq:
                break
            yield self.device.sim.timeout(backoff)
            backoff = min(backoff * 2, 16e-6)
        yield from self._read(length, remote_off=HDR_BYTES,
                              local_off=HDR_BYTES)
        return self._fetch.read(length, offset=HDR_BYTES)

    def _call(self, request: bytes, resp_hint: int):
        yield from self._staged("post", self._send_request(request),
                                nbytes=len(request))
        return (yield from self._staged("complete",
                                        self._fetch_response(resp_hint)))


class _BypassServer(RpcServer):
    request_path = REQ_WRITE

    def _make_endpoint(self, conn_req):
        scq = self.device.create_cq()
        rcq = self.device.create_cq()
        qp = self.device.create_qp(self.pd, scq, rcq)
        return BypassEndpoint(self.device, self.pd, qp, self.cfg,
                              self.request_path)

    def _accept(self, conn_req, endpoint):
        yield from endpoint.setup()
        yield from conn_req.accept(endpoint.qp, private_data=endpoint.blob())

    def _recv(self, endpoint):
        return (yield from endpoint.recv_request())

    def _reply(self, endpoint, resp: bytes):
        yield from endpoint.publish_response(resp)


class PilafClient(_BypassClient):
    request_path = REQ_SEND
    metadata_reads = 2  # hash bucket + entry validation


class PilafServer(_BypassServer):
    request_path = REQ_SEND


class FarmClient(_BypassClient):
    request_path = REQ_WRITE
    metadata_reads = 1  # index entry


class FarmServer(_BypassServer):
    request_path = REQ_WRITE


class RfpClient(_BypassClient):
    """RFP: speculative single-READ fetch of header+payload together.

    Failed speculations (server not done yet) back off exponentially --
    RFP's own design throttles clients that poll too eagerly ("falls back"
    per [59]); without this, many clients re-READing full slots melt the
    server's NIC with retry traffic.
    """

    request_path = REQ_WRITE

    def _fetch_response(self, resp_hint: int):
        slot = max(self.cfg.rfp_first_read, 16)
        backoff = 1e-6
        while True:
            first = min(HDR_BYTES + slot, self._fetch.length)
            yield from self._read(first)
            kind, seq, length, _a, _k = unpack_ctrl(
                self._fetch.read(HDR_BYTES))
            if kind == K_NOTIFY and seq == self._seq:
                break
            yield self.device.sim.timeout(backoff)
            backoff = min(backoff * 2, 16e-6)
        if length > slot:
            # Fallback READ for the overflow tail.
            yield from self._read(length - slot,
                                  remote_off=HDR_BYTES + slot,
                                  local_off=HDR_BYTES + slot)
        return self._fetch.read(length, offset=HDR_BYTES)


class RfpServer(_BypassServer):
    request_path = REQ_WRITE


class HerdClient(_BypassClient):
    """HERD [36]: requests WRITTEN into a memory-polled server region,
    responses pushed back with (small) SENDs.

    HERD's responses ride unreliable-datagram SENDs sized for small
    messages; large responses are chunked at ``HERD_RESP_SLOT`` bytes, each
    chunk costing the server a post_send and the client a ring-slot copy --
    which is exactly why HERD struggles on GET/MultiGET in the paper's YCSB
    evaluation (Section 5.4).
    """

    request_path = REQ_WRITE

    def _post_setup(self):
        self._ring = RecvRing(self.pd, self.qp, self.cfg.ring_slots,
                              HDR_BYTES + HERD_RESP_SLOT)
        yield from self._ring.post_all()

    def _fetch_response(self, resp_hint: int):
        chunks = {}
        total = None
        got = 0
        while total is None or got < total:
            wcs = yield from self.rcq.wait(self.cfg.poll_mode, max_wc=4)
            for wc in wcs:
                check_wc(wc)
                ring = self._ring
                kind, seq, length, offset, _k = unpack_ctrl(
                    ring.read(wc.wr_id, HDR_BYTES))
                if kind != K_NOTIFY or seq != self._seq:
                    raise ProtocolError("unexpected HERD response chunk")
                payload_len = wc.byte_len - HDR_BYTES
                yield from self.device.memcpy(payload_len,
                                              self.cfg.numa_local)
                chunks[offset] = ring.read(wc.wr_id, payload_len,
                                           offset=HDR_BYTES)
                total = length
                got += payload_len
                yield from ring.post(wc.wr_id)
        return b"".join(chunks[off] for off in sorted(chunks))


class HerdServer(_BypassServer):
    request_path = REQ_WRITE

    def _reply(self, endpoint, resp: bytes):
        # Chunked SEND response: one post per HERD_RESP_SLOT bytes.
        seq = endpoint._last_seq
        dev = endpoint.device
        staging = getattr(endpoint, "_herd_staging", None)
        if staging is None:
            staging = endpoint.pd.reg_mr(HDR_BYTES + HERD_RESP_SLOT)
            endpoint._herd_staging = staging
        off = 0
        sent_any = False
        while off < len(resp) or not sent_any:
            chunk = resp[off:off + HERD_RESP_SLOT]
            yield from dev.memcpy(len(chunk), self.cfg.numa_local)
            # header 'addr' field doubles as the chunk offset
            staging.write(pack_ctrl(K_NOTIFY, seq, len(resp), addr=off)
                          + chunk)
            yield from endpoint.qp.post_send(
                SendWR(Opcode.SEND,
                       Sge(staging.addr, HDR_BYTES + len(chunk),
                           staging.lkey), signaled=True),
                numa_local=self.cfg.numa_local)
            # Reuse of the staging slot requires the previous SEND done.
            wcs = yield from endpoint.qp.send_cq.wait(self.cfg.poll_mode,
                                                      max_wc=1)
            check_wc(wcs[0])
            off += len(chunk)
            sent_any = True


#: HERD's response-slot size (its design targets small messages).  Real
#: HERD ships bare values, so its slots need only fit the KV unit (1 KB
#: under YCSB); the emulation routes Thrift-framed messages through the
#: same transport, so the slot carries ~40 B of RPC framing on top.  Size
#: it to hold one value plus that framing -- otherwise a single GET pays
#: a two-chunk penalty real HERD never would, while MultiGET responses
#: (~10 KB) still chunk ~10x, which is the collapse the paper reports.
HERD_RESP_SLOT = 1088


register_protocol("pilaf", PilafClient, PilafServer)
register_protocol("farm", FarmClient, FarmServer)
register_protocol("rfp", RfpClient, RfpServer)
register_protocol("herd", HerdClient, HerdServer)
