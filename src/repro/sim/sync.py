"""Synchronization primitives built on the event kernel.

All acquire/get style operations return an :class:`~repro.sim.core.Event`
that the caller must yield; releases are plain calls.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, SimulationError, Simulator, Timeout

__all__ = ["Gate", "Lane", "Resource", "Store"]


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


class Lane:
    """A capacity-1 FIFO server whose every holder leaves after a fixed time.

    Such a server is fully described by the time it next falls free, so a
    lane stores only ``free_at``: :meth:`hold` books the next slot and
    returns the one :class:`~repro.sim.core.Timeout` that fires when it
    ends, at ``max(now, free_at) + duration`` -- the float a FIFO
    :class:`Resource` holder produces, since FIFO service starts each holder
    at its predecessor's finish.  There is no acquire event and no waiter
    queue.  Used for NIC ports (serialization onto and off the wire).

    A booked slot is committed: the holder's frame occupies the lane until
    it has left, even if the holder is interrupted while it waits, so the
    next holder starts after it.  (A :class:`Resource` holder would release
    early from its ``finally``.)

    Tie order: the returned timeout takes its heap sequence number at the
    :meth:`hold` call, not when the slot starts; holders finishing at the
    same instant fire in booking order.
    """

    __slots__ = ("sim", "free_at")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.free_at = 0.0

    def hold(self, duration: float, value: Any = None) -> Timeout:
        """Book the lane for ``duration`` after its current holders; the
        returned timeout (carrying ``value``) fires when the slot ends."""
        sim = self.sim
        start = self.free_at
        if start < sim.now:
            start = sim.now
        ev = Timeout(sim, duration, value, start)
        self.free_at = start + duration
        return ev


class Store:
    """An unbounded FIFO queue of items with blocking ``get``.

    ``put`` is non-blocking (queues the item); ``get`` returns an event that
    fires with the next item.  Items are matched to getters FIFO/FIFO, which
    keeps multi-consumer servers deterministic.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking pop; None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def __len__(self) -> int:
        return len(self._items)


class Gate:
    """A repeatable broadcast signal.

    ``wait()`` returns an event that fires at the next ``fire()``.  Unlike a
    bare Event, a Gate can be fired many times; each ``fire`` releases the
    waiters registered since the previous one.  Used for completion-queue
    arming and connection-ready notifications.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Release all current waiters; returns how many were released."""
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)
