"""Discrete-event simulator core: events, processes, and the event loop.

The design follows the classic process-interaction style (as in SimPy): a
*process* is a generator that yields :class:`Event` objects; the simulator
resumes the generator when the yielded event fires, sending the event's value
back into the generator (or throwing its exception).

Determinism: events scheduled for the same timestamp fire in schedule order
(a monotonically increasing sequence number breaks ties), so repeated runs of
the same program produce byte-identical traces.

Host cost: the heap entry is ``(time, sequence number, event)`` and every
place that schedules one -- :meth:`Event.succeed`/:meth:`Event.fail`,
:class:`Timeout`, a :class:`Process` boot -- takes the next sequence number
and pushes it itself, and both :meth:`Simulator.step` and
:meth:`Simulator.run` pop and fire entries inline.  That is deliberate
duplication of a three-line idiom: these are the innermost loops of every
test, figure and benchmark in the repository, and a call frame per event is
a tenth of their host time.  What must never change is *which* sequence
number an entry gets and *which* float its time is (``now + delay``, one
addition), because those decide the order of everything (DESIGN.md, "Kernel
invariants").
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double-trigger, etc.)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence with a value or an exception.

    An event starts *pending*; exactly one of :meth:`succeed` or :meth:`fail`
    moves it to *triggered*, after which the simulator runs its callbacks at
    the scheduled time.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        #: set True (or call defuse()) to let a failure pass unobserved
        self.defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (sim.now + delay, eid, self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._exc = exc
        sim = self.sim
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (sim.now + delay, eid, self))
        return self

    def defuse(self) -> "Event":
        self.defused = True
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event is processed (immediately if past)."""
        if self.callbacks is None:
            cb(self)
        else:
            self.callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self.processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation.

    ``start`` (default: now) moves the origin: the event fires at
    ``start + delay``, one addition, which is how a queue of fixed-time
    holders (:class:`~repro.sim.sync.Lane`) reproduces the float a holder
    that started at ``start`` would have produced.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 start: Optional[float] = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self.defused = False
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, ((sim.now if start is None else start) + delay,
                             eid, self))


class Process(Event):
    """A running generator coroutine; also an event that fires on return.

    The process's value is the generator's return value; an uncaught
    exception inside the generator fails the process event (and propagates
    to :meth:`Simulator.run` if nothing is waiting on it).
    """

    __slots__ = ("gen", "name", "_waiting_on", "trace_ctx", "_resume")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Distributed-trace context rides on the process; spawned processes
        # inherit the spawner's so detached work (server loops, handlers)
        # stays attributed to the RPC that caused it.  None when tracing is
        # off -- instrumented sites pay exactly this one attribute check.
        ap = sim.active_process
        self.trace_ctx = ap.trace_ctx if ap is not None else None
        # The one callback this process ever registers on the events it
        # waits for: bound once, dropped when the generator ends (it is a
        # reference cycle until then).
        self._resume = resume = self._step
        # Kick off at the current time, but via the event queue so that the
        # creator finishes its own time step first.
        boot = Event(sim)
        boot._triggered = True
        boot.callbacks.append(resume)
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (sim.now, eid, boot))

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        if self._waiting_on is not None:
            # Detach from the event we were waiting on; it may still fire
            # later but must not resume us twice.
            target = self._waiting_on
            self._waiting_on = None
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        kick = Event(self.sim)
        kick.callbacks.append(self._resume)
        kick.fail(Interrupt(cause))

    # -- internal stepping --------------------------------------------------
    def _step(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome (its value sent in,
        or its exception thrown at the ``yield``), then park the process on
        the event it yields next.  Called exactly once per resumption."""
        if self._triggered:
            return
        self._waiting_on = None
        sim = self.sim
        prev = sim.active_process
        sim.active_process = self
        try:
            if event._exc is None:
                target = self.gen.send(event._value)
            else:
                target = self.gen.throw(event._exc)
        except StopIteration as stop:
            sim.active_process = prev
            self._resume = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim.active_process = prev
            self._resume = None
            self.fail(exc)
            return
        sim.active_process = prev
        if not isinstance(target, Event):
            self._throw(SimulationError(
                f"process {self.name!r} yielded {target!r}, not an Event"))
        elif target.sim is not sim:
            self._throw(SimulationError(
                f"process {self.name!r} yielded an event from another simulator"))
        elif target.callbacks is None:
            self._step(target)      # already in the past: carry straight on
        else:
            self._waiting_on = target
            target.callbacks.append(self._resume)

    def _throw(self, exc: BaseException) -> None:
        """Resume the generator by raising ``exc`` at its current ``yield``."""
        carrier = Event(self.sim)
        carrier._exc = exc
        self._step(carrier)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._n_done = 0
        if not self.events:
            self.succeed([])
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; value = list of values.

    If any constituent fails, AllOf fails with that exception.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the first constituent fires; value = (index, value)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self.succeed((self.events.index(event), event._value))


class Simulator:
    """The event loop: a time-ordered heap of triggered events."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self.active_process: Optional[Process] = None
        self._heap: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._nevents = 0

    # -- factory helpers ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Spawn a new process from a generator."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- the event loop -----------------------------------------------------
    def step(self) -> None:
        """Fire the next event: move the clock to it and run its callbacks."""
        when, _eid, event = heappop(self._heap)
        self.now = when
        self._nevents += 1
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if event._exc is not None and not callbacks and not event.defused:
            # A failure nobody is waiting on must not vanish: surface it at
            # the event loop (defuse() opts out for intentional crashes).
            raise event._exc

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if none."""
        return self._heap[0][0] if self._heap else inf

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        ``until`` may be a timestamp (run to that simulated time), an Event
        (run until it is processed; returns/raises its value), or None
        (run to exhaustion).  Both loops below are :meth:`step` written out.
        """
        heap = self._heap
        if isinstance(until, Event):
            while until.callbacks is not None:
                if not heap:
                    raise SimulationError(
                        "event queue drained before the awaited event fired "
                        "(deadlock: a process is waiting on an event nobody "
                        "will trigger)")
                when, _eid, event = heappop(heap)
                self.now = when
                self._nevents += 1
                callbacks, event.callbacks = event.callbacks, None
                for cb in callbacks:
                    cb(event)
                if (event._exc is not None and not callbacks
                        and not event.defused):
                    raise event._exc
            return until.value
        deadline = inf if until is None else float(until)
        while heap and heap[0][0] <= deadline:
            when, _eid, event = heappop(heap)
            self.now = when
            self._nevents += 1
            callbacks, event.callbacks = event.callbacks, None
            for cb in callbacks:
                cb(event)
            if event._exc is not None and not callbacks and not event.defused:
                raise event._exc
        if until is not None and self.now < deadline:
            self.now = deadline
        return None

    @property
    def events_executed(self) -> int:
        return self._nevents
