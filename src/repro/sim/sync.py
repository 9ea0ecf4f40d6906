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

    A holder may book ahead: ``hold(d, after=L)`` is a frame that reaches
    the lane ``L`` from now (a packet leaving the wire's far end), booked
    when it leaves, at ``max(now + L, free_at) + d``.  That is the float a
    ``timeout(L)`` followed by ``hold(d)`` gives as long as every holder
    books the same ``L`` ahead -- then bookings at departure are made in
    the order the arrivals would make them.  A port's RX side is booked so
    (every arrival is one ``wire_latency`` after its departure).

    Tie order: the returned timeout takes its heap sequence number at the
    :meth:`hold` call, not when the slot starts (nor, booked ahead, when
    the frame arrives); holders finishing at the same instant fire in
    booking order.
    """

    __slots__ = ("sim", "free_at")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.free_at = 0.0

    def hold(self, duration: float, value: Any = None,
             after: float = 0.0) -> Timeout:
        """Book the lane for ``duration`` after its current holders, for a
        holder that arrives ``after`` from now; the returned timeout
        (carrying ``value``) fires when the slot ends."""
        sim = self.sim
        start = sim.now + after
        if start < self.free_at:
            start = self.free_at
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

    ``wait(delay)`` is a waiter that wakes ``delay`` after the fire (an
    event-mode poller's interrupt latency): one heap entry at
    ``fire time + delay``, the float a wake-up followed by ``timeout(delay)``
    reaches, numbered at the fire.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._waiters: list[tuple[Event, float]] = []

    def wait(self, delay: float = 0.0) -> Event:
        ev = Event(self.sim)
        self._waiters.append((ev, delay))
        return ev

    def fire(self, value: Any = None) -> int:
        """Release all current waiters; returns how many were released."""
        waiters, self._waiters = self._waiters, []
        for ev, delay in waiters:
            ev.succeed(value, delay)
        return len(waiters)

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)
