"""Completion queues and the two polling disciplines.

The paper's protocol analysis (Section 3.2) hinges on the busy-vs-event
polling tradeoff:

* **busy polling** (``PollMode.BUSY``) -- the thread stays runnable the
  whole time (a *spinner* on the node's CPU scheduler), sees completions
  with zero notification latency, but burns a core: with more pollers than
  cores, everyone slows down (Figure 5's over-subscription collapse);
* **event polling** (``PollMode.EVENT``) -- the thread blocks on a
  completion channel, pays interrupt + wakeup latency (~3 us) plus re-arm
  CPU, but consumes no CPU while idle, so it scales.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, List

from repro import obs
from repro.sim.core import Simulator
from repro.sim.sync import Gate
from repro.verbs.errors import CQOverflowError
from repro.verbs.types import WC

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.device import Device

__all__ = ["CQ", "CompChannel", "PollMode"]


class PollMode(enum.Enum):
    BUSY = "busy"
    EVENT = "event"


class CompChannel:
    """Completion event channel (ibv_comp_channel): a wakeup broadcast."""

    def __init__(self, sim: Simulator):
        self.gate = Gate(sim)

    def wait(self, latency: float):
        """An event that fires ``latency`` after the next :meth:`fire` (the
        interrupt and scheduler wake-up a blocked poller pays)."""
        return self.gate.wait(latency)

    def fire(self) -> None:
        self.gate.fire()


class CQ:
    """A completion queue bound to one device (and thus one node's CPU)."""

    def __init__(self, sim: Simulator, device: "Device", capacity: int = 4096,
                 channel: CompChannel | None = None):
        self.sim = sim
        self.device = device
        self.capacity = capacity
        self.channel = channel or CompChannel(sim)
        self._q: Deque[WC] = deque()
        self._gate = Gate(sim)  # fires on every push; used by busy pollers
        self._armed = False
        self.completions_total = 0
        # Instruments captured once at construction (None = metrics off:
        # the push/wait hot paths pay a single attribute check).
        reg = obs.current()
        if reg is not None:
            self._m_completions = reg.counter("cq.completions")
            self._m_wait = {PollMode.BUSY: reg.counter("cq.wait_busy"),
                            PollMode.EVENT: reg.counter("cq.wait_event")}
            self._m_occupancy = {
                PollMode.BUSY: reg.histogram("cq.busy.occupancy",
                                             lowest=1.0),
                PollMode.EVENT: reg.histogram("cq.event.occupancy",
                                              lowest=1.0)}
        else:
            self._m_completions = None
            self._m_wait = None
            self._m_occupancy = None

    # -- NIC side -----------------------------------------------------------
    def push(self, wc: WC) -> None:
        if len(self._q) >= self.capacity:
            raise CQOverflowError(
                f"CQ overflow (capacity {self.capacity}); the protocol is "
                "generating completions faster than it polls them")
        self._q.append(wc)
        self.completions_total += 1
        if self._m_completions is not None:
            self._m_completions.inc()
        self._gate.fire()
        if self._armed:
            self._armed = False
            self.channel.fire()

    # -- host side ------------------------------------------------------------
    def poll(self, max_wc: int = 16) -> List[WC]:
        """Non-blocking poll: pop up to ``max_wc`` completions (no sim time)."""
        out = []
        while self._q and len(out) < max_wc:
            out.append(self._q.popleft())
        return out

    def req_notify(self) -> None:
        """Arm the completion channel for the next completion."""
        self._armed = True

    def poll_cost(self, mode: PollMode) -> float:
        """CPU time of the poll that reaps a wait's completions: one
        ``ibv_poll_cq``, plus the channel re-arm under event polling."""
        cost = self.device.cost
        if mode is PollMode.BUSY:
            return cost.poll_cpu
        return cost.poll_cpu + cost.rearm_cpu

    def reap(self, mode: PollMode, max_wc: int = 16):
        """Coroutine: wait under the given discipline until completions are
        available and return them, their poll not charged yet -- the caller
        runs :meth:`poll_cost` as the first piece of its next CPU job (the
        copy-out and ring re-post that follow it), or alone
        (:meth:`wait`).

        Busy polling spins on the CQ (a spinner on the node's CPU); event
        polling arms the channel and sleeps, woken ``interrupt_latency``
        after the completion lands -- one heap entry.  The "cq_wait" trace
        stage covers the wait, up to the moment the completions are seen.
        """
        if self._m_wait is not None:
            # Poll-mode occupancy: how deep the CQ already is when a
            # poller arrives (0 = it will block/spin for the completion).
            self._m_wait[mode].inc()
            self._m_occupancy[mode].record(float(len(self._q)))
        sim = self.sim
        ap = sim.active_process
        ctx = ap.trace_ctx if ap is not None else None
        t0 = sim.now
        wcs = self.poll(max_wc)
        if not wcs and mode is PollMode.BUSY:
            cpu = self.device.node.cpu
            tok = cpu.spin_begin()
            try:
                while not wcs:
                    yield self._gate.wait()
                    wcs = self.poll(max_wc)
            finally:
                cpu.spin_end(tok)
        elif not wcs:
            latency = self.device.cost.interrupt_latency
            while not wcs:
                self.req_notify()
                yield self.channel.wait(latency)
                wcs = self.poll(max_wc)
        if ctx is not None:
            ctx.stage("cq_wait", t0, sim.now, mode=mode.value,
                      wcs=len(wcs))
        return wcs

    def wait(self, mode: PollMode, max_wc: int = 16):
        """Coroutine: poll under the given discipline; the poll is charged
        on its own before the completions are returned."""
        wcs = yield from self.reap(mode, max_wc)
        yield self.device.node.cpu.compute(self.poll_cost(mode))
        return wcs

    def __len__(self) -> int:
        return len(self._q)
