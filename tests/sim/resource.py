"""A counted resource (semaphore) with FIFO waiters: the test-side
reference for FIFO service on the simulated clock.

``src/`` has no use for it: NIC ports are :class:`~repro.sim.sync.Lane`
objects, and LMDB's single writer is the HatKV backend's own write queue.
The kernel golden program drives it, and ``tests/netfab/test_lane.py``
holds ``Lane`` to its floats bit for bit.
"""

from collections import deque
from typing import Deque

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["Resource"]


class Resource:
    """A counted resource (semaphore) with FIFO waiters.

    Used for, e.g., NIC execution engines and link serialization.
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.in_use = 0
        self._waiters: Deque[Event] = deque()

    def acquire(self) -> Event:
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        while self._waiters:
            ev = self._waiters.popleft()
            # Skip waiters whose process was interrupted (e.g. a deadline
            # cancellation): interrupt() detached their callback, so handing
            # them the slot would leak it forever.  A live waiter always has
            # a registered callback here because acquire()->yield happens
            # without an intervening event-loop step.
            if not ev.triggered and ev.callbacks:
                # Hand the slot directly to the waiter; in_use is unchanged.
                ev.succeed()
                return
        self.in_use -= 1

    def use(self, duration: float):
        """Generator helper: hold the resource for ``duration`` seconds."""
        yield self.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()

    @property
    def queued(self) -> int:
        return len(self._waiters)
