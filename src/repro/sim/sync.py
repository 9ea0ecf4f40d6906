"""Synchronization primitives built on the event kernel.

All acquire/get style operations return an :class:`~repro.sim.core.Event`
that the caller must yield; releases are plain calls.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, Simulator, Timeout

__all__ = ["Gate", "Lane", "Store"]


class Lane:
    """A capacity-1 FIFO server whose every holder leaves after a fixed time.

    Such a server is fully described by the time it next falls free, so a
    lane stores only ``free_at``: :meth:`hold` books the next slot and
    returns the one :class:`~repro.sim.core.Timeout` that fires when it
    ends, at ``max(now, free_at) + duration`` -- the float a holder of a
    FIFO semaphore produces (``tests/sim/resource.py`` is that reference),
    since FIFO service starts each holder at its predecessor's finish.
    There is no acquire event and no waiter queue.  Used for NIC ports
    (serialization onto and off the wire).

    A booked slot is committed: the holder's frame occupies the lane until
    it has left, even if the holder is interrupted while it waits, so the
    next holder starts after it.  (A semaphore holder would release early
    from its ``finally``.)

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
