"""SRQ server receive path for the eager two-sided protocol.

The classic ``eager_sendrecv`` server runs one serve loop -- and one
pre-posted receive ring -- per connection.  Past a handful
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
the request arrived on, through the ``eager_sendrecv`` row's own server
endpoint (:class:`~repro.protocols.twosided.TwoSidedEndpoint`, built from
the row the client was built from and never ``setup()``: its receive ring
is the pool), so the stock client is wire-compatible and unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.protocols.base import (
    HDR_BYTES,
    K_EAGER,
    ProtoConfig,
    RecvRing,
    RpcServer,
    charge,
    get_protocol,
    hard_close,
)
from repro.verbs.device import Device
from repro.verbs.types import WCStatus

__all__ = ["SRQ_SERVERS", "SrqEagerServer"]


class SrqEagerServer(RpcServer):
    """Eager-SendRecv server whose receive path is one SRQ + one CQ +
    one dispatcher, shared by every connection.

    ``srq_slots`` sizes the shared recv-WQE pool (default: the config's
    ``ring_slots``).  It bounds the server's total in-flight *arrivals*
    across all clients; bursts beyond it are absorbed by the RC transport's
    RNR retry, not dropped.
    """

    def __init__(self, device: Device, service_id: int, handler,
                 cfg: Optional[ProtoConfig] = None,
                 srq_slots: Optional[int] = None):
        # The eager_sendrecv row, under the name this server's counters
        # and spans carry.
        row = replace(get_protocol("eager_sendrecv")[1].row, name="eager_srq")
        super().__init__(row, device, service_id, handler, cfg)
        self.srq_slots = srq_slots if srq_slots is not None \
            else self.cfg.ring_slots
        self.srq = None
        self.rcq = None
        self.scq = None
        self._ring: Optional[RecvRing] = None
        self._conns: Dict[int, object] = {}   # qp_num -> reply endpoint

    def start(self) -> "SrqEagerServer":
        self.srq = self.device.create_srq()
        self.rcq = self.device.create_cq(
            capacity=max(4096, 2 * self.srq_slots))
        self.scq = self.device.create_cq()
        self.sim.process(self._run(),
                         name=f"srq-dispatch-{self.service_id}")
        return super().start()

    # -- receive path --------------------------------------------------------
    def _run(self):
        """Coroutine: post the shared slot pool, then dispatch forever."""
        self._ring = RecvRing(self.pd, self.srq, self.srq_slots,
                              HDR_BYTES + self.cfg.max_msg)
        yield from self._ring.post_all()
        mode = self.cfg.poll_mode
        while not self._stopped:
            t_poll = self.sim.now
            wcs = yield from self.rcq.reap(mode)
            before = (self.rcq.poll_cost(mode),)
            for wc in wcs:
                yield from self._one_wc(wc, t_poll, before)
                before = ()

    def _one_wc(self, wc, t_poll: float, before: tuple):
        """Coroutine: one completion off the shared CQ; ``before`` (the
        poll, for the first of a reap) is charged with its copy-out and
        re-post, or alone if the completion or its frame is bad."""
        if wc.status is not WCStatus.SUCCESS:
            # An error completion names its connection via qp_num; only
            # that connection dies -- the pool and its neighbors carry on.
            yield from charge(self.device, before)
            self._drop_conn(wc.qp_num)
            return
        ring = self._ring
        kind, _seq, length, _addr, _rkey = ring.header(wc.wr_id)
        if kind != K_EAGER or length > ring.capacity:
            # A corrupt frame (a foreign kind, or a length its slot cannot
            # hold) condemns the connection it arrived on, as it does under
            # a per-connection serve loop -- never the shared dispatcher:
            # the slot goes back to the pool and everyone else keeps being
            # served.
            yield from charge(self.device, before)
            yield from ring.post(wc.wr_id)
            self._drop_conn(wc.qp_num)
            return
        # Copy out, then immediately re-post: the slot is back in the pool
        # before the handler runs, so slow handlers cost RNR pressure on
        # *admitted* work only, never on the shared receive ring.
        request = ring.read(wc.wr_id, length, offset=HDR_BYTES)
        yield from ring.post(wc.wr_id, (
            *before, self.device.copy_time(length, self.cfg.numa_local)))
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
            conn = self.row.server_end(self.device, self.pd, qp, self.cfg,
                                       **self.row.params)
            yield from req.accept(qp)
            self._conns[qp.qp_num] = conn
            self.connections += 1

    def _drop_conn(self, qp_num: int) -> None:
        conn = self._conns.pop(qp_num, None)
        if conn is not None:
            self.teardowns += 1
            hard_close(conn.qp)


#: protocol name -> SRQ-backed server class, for runtimes that opt in
#: (``HatRpcServer(srq=True)``).  The matching *client* row is unchanged:
#: the SRQ is invisible on the wire.
SRQ_SERVERS = {"eager_sendrecv": SrqEagerServer}
