"""The simulated RNIC: device context, protection domains, memory regions."""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Optional

from repro import obs
from repro.netfab.fabric import Fabric, Port
from repro.sim.cluster import Node
from repro.sim.core import Simulator
from repro.verbs.costmodel import CostModel
from repro.verbs.cq import CQ, CompChannel
from repro.verbs.errors import MemoryAccessError, VerbsError
from repro.verbs.memory import Memory

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.qp import QP, SRQ

__all__ = ["Device", "MR", "PD"]

_REGISTRATION_ORDER = attrgetter("seq")     # of MemWatch, on its device


class MR:
    """A registered memory region: an rkey/lkey window over node memory.

    The region lies inside one allocation, found once at registration: host
    loads and stores go straight to that segment at ``_off``, the region's
    offset in it (:meth:`Memory.free` turns the segment into one that
    faults, so a region over freed memory still raises)."""

    __slots__ = ("pd", "addr", "length", "lkey", "rkey", "_seg", "_off")

    def __init__(self, pd: "PD", addr: int, length: int, key: int):
        self.pd = pd
        self.addr = addr
        self.length = length
        # Real verbs issues distinct lkey/rkey; sharing one integer keeps
        # bookkeeping simple while preserving the access-check semantics.
        self.lkey = key
        self.rkey = key
        self._seg = pd.device.mem.segment(addr, length)
        self._off = addr - self._seg.base

    def contains(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.addr + self.length

    def write(self, data: bytes, offset: int = 0) -> None:
        """Host-side store into the region (no simulated cost)."""
        if offset < 0 or offset + len(data) > self.length:
            raise MemoryAccessError("MR host write out of bounds")
        self._seg.write(self._off + offset, data)

    def read(self, length: int, offset: int = 0) -> bytes:
        """Host-side load from the region (no simulated cost)."""
        if offset < 0 or offset + length > self.length:
            raise MemoryAccessError("MR host read out of bounds")
        return self._seg.read(self._off + offset, length)

    def charge_registration(self):
        """Coroutine: pay the one-time pinning cost (used at engine setup)."""
        yield self.pd.device.node.cpu.compute(
            self.pd.device.cost.reg_mr_time(self.length))

    def deregister(self) -> None:
        self.pd.device._dereg_mr(self)


class PD:
    """Protection domain: the registration scope for MRs and QPs."""

    def __init__(self, device: "Device", handle: int):
        self.device = device
        self.handle = handle

    def reg_mr(self, length: int, addr: Optional[int] = None) -> MR:
        """Register ``length`` bytes (freshly allocated unless ``addr`` given).

        Registration is free of simulated time here because every protocol in
        this codebase registers at setup; use :meth:`MR.charge_registration`
        where setup cost matters.  A range outside any allocation is a
        :class:`MemoryAccessError`.
        """
        dev = self.device
        if addr is None:
            addr = dev.mem.alloc(length)
        key = next(dev._keys)
        mr = MR(self, addr, length, key)
        dev._mrs[key] = mr
        dev.registered_bytes += length
        return mr


class Device:
    """One node's RDMA NIC (an ibv_context equivalent)."""

    def __init__(self, sim: Simulator, node: Node, fabric: Fabric,
                 cost: Optional[CostModel] = None):
        self.sim = sim
        self.node = node
        self.fabric = fabric
        self.cost = cost or CostModel()
        self.port: Port = fabric.port_of(node)
        self.mem = Memory()
        self._mrs: Dict[int, MR] = {}
        self._qps: Dict[int, "QP"] = {}
        self._keys = itertools.count(0x1000)
        self._qpn = itertools.count(1)
        self._pdn = itertools.count(1)
        self._listeners: Dict[int, "object"] = {}  # cm.Listener
        # Memory watches ordered by address (``_watch_addrs[i]`` is
        # ``_watches[i].addr``), so an inbound WRITE bisects to the few it
        # can touch instead of scanning one watch per connection.
        self._watches: list["MemWatch"] = []
        self._watch_addrs: list[int] = []
        self._watch_span = 0            # longest watch ever registered
        self._watch_seq = itertools.count()
        # -- instrumentation (read by ablation benches) --
        self.registered_bytes = 0
        self.doorbells = 0
        self.wrs_posted = 0
        # Metrics instruments, captured once (None = metrics disabled).
        reg = obs.current()
        if reg is not None:
            self._m_doorbells = reg.counter("verbs.doorbells")
            self._m_wrs = reg.counter("verbs.wrs_posted")
        else:
            self._m_doorbells = None
            self._m_wrs = None
        node.nic = self
        node.on_crash(self.fail)

    def fail(self) -> None:
        """Node crash: error every QP (flushing both sides) and drop listeners.

        Registered memory and its contents are *not* cleared -- a crashed
        node's RAM is gone in reality, but nothing can reach it while the
        node is down, and restore() semantics here are "process restarted",
        which re-registers anyway.  Idempotent.
        """
        for qp in list(self._qps.values()):
            qp.to_error()
            if qp.peer is not None:
                qp.peer.to_error()
        self._listeners.clear()

    # -- factories ------------------------------------------------------------
    def alloc_pd(self) -> PD:
        return PD(self, next(self._pdn))

    def create_cq(self, capacity: int = 4096,
                  channel: Optional[CompChannel] = None) -> CQ:
        return CQ(self.sim, self, capacity, channel)

    def create_comp_channel(self) -> CompChannel:
        return CompChannel(self.sim)

    def create_qp(self, pd: PD, send_cq: CQ, recv_cq: CQ,
                  srq: Optional["SRQ"] = None) -> "QP":
        from repro.verbs.qp import QP  # local import breaks the cycle
        qp = QP(self, pd, next(self._qpn), send_cq, recv_cq, srq)
        self._qps[qp.qp_num] = qp
        return qp

    def create_srq(self) -> "SRQ":
        from repro.verbs.qp import SRQ
        return SRQ(self)

    # -- lookup helpers used by the datapath ----------------------------------
    def mr_for_rkey(self, rkey: int, addr: int, length: int) -> MR:
        mr = self._mrs.get(rkey)
        if mr is None:
            raise MemoryAccessError(f"unknown rkey {rkey:#x}")
        if not mr.contains(addr, length):
            raise MemoryAccessError(
                f"remote access [{addr:#x},+{length}) outside MR "
                f"[{mr.addr:#x},+{mr.length})")
        return mr

    def check_lkey(self, lkey: int, addr: int, length: int) -> MR:
        mr = self._mrs.get(lkey)
        if mr is None:
            raise MemoryAccessError(f"unknown lkey {lkey:#x}")
        if not mr.contains(addr, length):
            raise MemoryAccessError("local sge outside MR bounds")
        return mr

    def _dereg_mr(self, mr: MR) -> None:
        if self._mrs.pop(mr.rkey, None) is not None:
            self.registered_bytes -= mr.length

    # -- cost helpers -----------------------------------------------------------
    def cpu_time(self, base: float, numa_local: bool = True) -> float:
        """Scale a CPU-side NIC interaction by the NUMA penalty if remote."""
        return base if numa_local else base * self.cost.numa_remote_penalty

    def memcpy(self, nbytes: int, numa_local: bool = True):
        """Coroutine: charge a CPU-side copy of ``nbytes``."""
        yield self.node.cpu.compute(
            self.cpu_time(self.cost.memcpy_time(nbytes), numa_local))

    # -- memory polling support -------------------------------------------------
    def watch_memory(self, addr: int, length: int) -> "MemWatch":
        """Register interest in inbound RDMA WRITEs touching a range.

        This models *memory polling* (HERD/FaRM/RFP servers spin on the tail
        byte of a request slot): the watch's gate fires the instant an inbound
        WRITE lands in the range -- the moment a real polling loop would see
        the data.  The watcher is responsible for holding a CPU spin token
        while it "polls"; the gate is only the simulation's wakeup channel.
        """
        w = MemWatch(self, addr, length, next(self._watch_seq))
        i = bisect_right(self._watch_addrs, addr)
        self._watch_addrs.insert(i, addr)
        self._watches.insert(i, w)
        self._watch_span = max(self._watch_span, length)
        return w

    def _notify_write(self, addr: int, length: int) -> None:
        # A watch overlapping [addr, addr+length) starts before its end and
        # no further than the longest watch before ``addr``.
        addrs = self._watch_addrs
        lo = bisect_right(addrs, addr - self._watch_span)
        hi = bisect_left(addrs, addr + length, lo)
        if lo < hi:
            # Overlapping watches fire in registration order, as when the
            # watches were one list scanned front to back.
            for w in sorted(self._watches[lo:hi], key=_REGISTRATION_ORDER):
                if addr < w.addr + w.length:
                    w.gate.fire()


class MemWatch:
    """Handle for a registered memory watch (see Device.watch_memory)."""

    def __init__(self, device: "Device", addr: int, length: int, seq: int):
        from repro.sim.sync import Gate
        self.device = device
        self.addr = addr
        self.length = length
        self.seq = seq              # registration order on the device
        self.gate = Gate(device.sim)

    def cancel(self) -> None:
        """Stop watching (idempotent)."""
        addrs, watches = self.device._watch_addrs, self.device._watches
        i = bisect_left(addrs, self.addr)
        while i < len(addrs) and addrs[i] == self.addr:
            if watches[i] is self:
                del addrs[i], watches[i]
                return
            i += 1

