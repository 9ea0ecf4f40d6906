"""Fair-share CPU model for a multi-core node.

The model is generalized processor sharing (GPS): a node has ``cores`` cores
and a set of *runnable* threads.  While the number of runnable threads R is
at most the core count C every thread runs at full speed; beyond that each
runs at C/R of a core.  This is what produces the paper's key concurrency
effect (Section 3.2, Figure 5): busy-polling threads are always runnable, so
over-subscribing a node with busy pollers collapses throughput, while
event-polling threads block (not runnable) and scale.

Two kinds of runnable load are tracked:

* **finite jobs** -- ``compute(cpu_seconds)`` consumes that much CPU work and
  completes (handler execution, memcpy, serialization);
* **spinners** -- ``spin_begin()``/``spin_end()`` bracket a busy-poll loop:
  the thread is runnable (consuming a core's worth of schedulable time, thus
  slowing everyone else) but never "finishes".

Cost, and what is on the event heap.  While every runnable thread has a core
of its own (R <= C) a job runs at full speed from arrival to completion, so
its finish time is known when it arrives: :meth:`CpuScheduler.compute`
pushes one completion entry at ``now + cpu_seconds`` and that entry fires
the job itself -- no pass over the other jobs, no wake-up, no second event.
Only over-subscription needs the shared rate.  An arrival or a
``spin_begin`` that takes the node past C retires the in-flight completion
entries into :meth:`CpuScheduler._reschedule`, the one pass over the job
table: each job joins the table, in arrival order, owing ``finish - now``.
While R > C every change of state is one such pass, O(jobs): it charges each
job the work done since the previous pass, completes the jobs that reached
zero and schedules one wake-up for the moment the job with the least work
left will finish.  The pass that brings R back to <= C hands every job left
a completion entry at ``now + remaining`` and empties the table.  Every entry
carries the scheduler version it was pushed at and every pass takes a new
one, so a superseded wake-up or a retired completion entry is popped and
discarded when its time comes: dead events are left only by
over-subscription.

A job may be several pieces of work one thread runs back to back
(``compute((c1, c2, ...))``: a copy then a post, a poll then a copy-out and
a ring re-post; ``compute(c, times)`` is the equal-piece case: a list of
receive WRs posted in one call, a MultiGet's key descents).  With a core it
is one completion entry at the float the pieces reach one after another;
without one it runs piece by piece, as that many sequential calls would
(:class:`_Pieces`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappush
from math import inf
from typing import Dict, List, Optional

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["CpuScheduler", "SpinToken"]

_EPS = 1e-15


@dataclass
class SpinToken:
    """Handle returned by :meth:`CpuScheduler.spin_begin`."""

    scheduler: "CpuScheduler"
    sid: int
    active: bool = True


class _Job(Event):
    """A finite job: the event :meth:`CpuScheduler.compute` hands out, plus
    the CPU work the scheduler still owes it (as of the last pass, or of the
    moment it got a core of its own)."""

    __slots__ = ("remaining",)


class _Wake(Event):
    """A scheduler heap entry: born triggered and on the heap (as a
    :class:`~repro.sim.core.Timeout` is), its value the scheduler version it
    was pushed at.  A wake-up has no ``job`` and the scheduler's shared
    ``(_tick,)`` callbacks; a completion entry names its job and has the
    shared ``(_finish,)``."""

    __slots__ = ("job",)

    def __init__(self, sim: Simulator, when: float, version: int,
                 callbacks: tuple, job: Optional[_Job] = None):
        self.sim = sim
        self.callbacks = callbacks
        self._value = version
        self._exc = None
        self._triggered = True
        self.defused = False
        self.job = job
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (when, eid, self))


class _Pieces:
    """A job of several pieces, ``pieces[0]`` then ``pieces[1]`` ... back
    to back, that has lost its core (or arrived without one).

    While it has a core the job is one completion entry, at the float the
    pieces reach (``t += c`` per piece, from ``start``), and the scheduler
    keeps only ``(pieces, start)`` for it.  A job that arrives
    over-subscribed, or loses its core to a later arrival, runs the rest of
    its pieces one at a time -- each a job of its own, whose completion
    starts the next inline or from the heap entry a pass pushed for it, and
    the piece it lost its core on owing what it would owe alone -- so it
    pushes the entries and takes the floats sequential ``compute(c)`` calls
    would.  The last piece is the job handed out."""

    __slots__ = ("cpu", "job", "pieces", "i", "start")

    def __init__(self, cpu: "CpuScheduler", job: _Job, pieces: tuple,
                 start: float):
        self.cpu = cpu
        self.job = job
        self.pieces = pieces
        #: pieces started so far
        self.i = 0
        self.start = start

    def _next(self, _done: Optional[Event] = None) -> None:
        """Start the next piece (the previous one, if any, is done); a
        piece of no work is done at once, as ``compute`` does it."""
        c = self.pieces[self.i]
        self.i += 1
        if c > _EPS:
            self.cpu._start(self._piece(), c)
        else:
            self._piece().succeed()

    def _piece(self) -> _Job:
        """The job of the piece just started: the handed-out job if it is
        the last one, else a fresh job whose completion starts the next."""
        if self.i == len(self.pieces):
            return self.job
        piece = _Job(self.cpu.sim)
        piece.callbacks.append(self._next)
        return piece

    def _retire(self, now: float) -> tuple:
        """The job loses its core at ``now``: (the job of the piece it is
        on, the work that piece still owes)."""
        pieces = self.pieces
        finish = self.start
        i = 0
        while True:
            c = pieces[i]
            i += 1
            if c > _EPS:
                finish += c
            if finish >= now or i == len(pieces):
                break
        self.i = i
        return self._piece(), finish - now


class CpuScheduler:
    """GPS scheduler over ``cores`` identical cores."""

    def __init__(self, sim: Simulator, cores: int):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.sim = sim
        self.cores = cores
        #: the GPS table, in arrival order: non-empty only while R > C
        self._jobs: List[_Job] = []
        #: jobs with a core of their own -> the time their completion entry
        #: fires, in arrival order: non-empty only while R <= C
        self._running: Dict[_Job, float] = {}
        self._spinners: set[int] = set()
        self._ids = itertools.count(1)
        self._last_update = 0.0
        #: share of a core each table job has received since
        #: ``_last_update``; recomputed by every pass that leaves the table
        #: non-empty (with an empty table there is nothing to apply it to)
        self._rate = 1.0
        self._version = 0
        self._busy_time = 0.0  # core-seconds of useful work charged so far
        #: running multi-piece jobs -> (their pieces, their arrival)
        self._pieces: Dict[_Job, tuple] = {}
        self._tick_callbacks = (self._tick,)
        self._finish_callbacks = (self._finish,)

    # -- public API ---------------------------------------------------------
    @property
    def runnable(self) -> int:
        return len(self._jobs) + len(self._running) + len(self._spinners)

    @property
    def job_rate(self) -> float:
        """Fraction of one core each runnable thread currently receives."""
        r = self.runnable
        return 1.0 if r <= self.cores else self.cores / r

    @property
    def busy_core_seconds(self) -> float:
        """Total useful (finite-job) work done so far, in core-seconds.  A
        read: it charges no job and moves no event."""
        now = self.sim.now
        busy = self._busy_time + (self._rate * (now - self._last_update)
                                  * len(self._jobs))
        for job, finish in self._running.items():
            busy += job.remaining - (finish - now)
        return busy

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of the node's cores doing useful work over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_core_seconds / (elapsed * self.cores)

    def compute(self, cpu_seconds, times: int = 1) -> Event:
        """Consume CPU work as one job; the event fires when done.

        ``cpu_seconds`` is one piece of work, run ``times`` over back to
        back, or a tuple of pieces run one after the other (the thread's
        back-to-back charges: a copy then a post).  With a core of its own
        at arrival the job is one completion entry at the float the
        sequential ``compute(c)`` calls reach (``t += c``, one addition per
        piece).  Arriving over-subscribed, or losing its core to a later
        arrival, it runs its pieces one after another as those calls would
        (:class:`_Pieces`).
        """
        sim = self.sim
        job = _Job(sim)
        running = self._running
        has_core = (not self._jobs
                    and len(running) + len(self._spinners) < self.cores)
        if type(cpu_seconds) is tuple:
            pieces = cpu_seconds
        elif cpu_seconds <= _EPS or times < 1:
            return job.succeed()
        elif times == 1:
            job.remaining = cpu_seconds
            if has_core:
                running[job] = finish = sim.now + cpu_seconds
                _Wake(sim, finish, self._version, self._finish_callbacks,
                      job)
            else:
                self._reschedule(job)
            return job
        else:
            pieces = (cpu_seconds,) * times
        start = sim.now
        if not has_core:
            _Pieces(self, job, pieces, start)._next()
            return job
        work = 0.0
        finish = start
        for c in pieces:
            if c > _EPS:            # else done at once, as compute(c) is
                work += c
                finish += c
        job.remaining = work
        running[job] = finish
        self._pieces[job] = (pieces, start)
        _Wake(sim, finish, self._version, self._finish_callbacks, job)
        return job

    def _start(self, job: _Job, cpu_seconds: float) -> None:
        """Admit ``job`` owing ``cpu_seconds``: :meth:`compute` for an event
        made elsewhere."""
        job.remaining = cpu_seconds
        running = self._running
        if not self._jobs and len(running) + len(self._spinners) < self.cores:
            sim = self.sim
            running[job] = finish = sim.now + cpu_seconds
            _Wake(sim, finish, self._version, self._finish_callbacks, job)
        else:
            self._reschedule(job)

    def spin_begin(self) -> SpinToken:
        """Mark the calling thread as a busy-polling (always runnable) thread."""
        sid = next(self._ids)
        spinners = self._spinners
        spinners.add(sid)
        running = self._running
        if self._jobs or (running
                          and len(running) + len(spinners) > self.cores):
            self._reschedule()
        return SpinToken(self, sid)

    def spin_end(self, token: SpinToken) -> None:
        if not token.active:
            raise SimulationError("spin_end() on an inactive token")
        token.active = False
        self._spinners.discard(token.sid)
        if self._jobs:
            self._reschedule()

    # -- internals ------------------------------------------------------------
    # Bit-identity: the digests compare raw doubles, so the *sequence* of
    # float operations below is part of the model.  A job with a core of its
    # own finishes at ``arrival + work`` (or ``hand-back + remaining``), one
    # addition.  A table job's remaining work is ``finish - now`` when it is
    # retired into the table and is then decremented by ``rate * dt`` once
    # per pass (never by an accumulated or re-associated amount); the
    # wake-up is ``now + min_rem / rate``; jobs that finish in one pass
    # complete in table (arrival) order.

    def _reschedule(self, arriving: Optional[_Job] = None) -> None:
        """The one pass per change of state while over-subscribed: retire
        the running jobs' completion entries into the table (when this pass
        starts an over-subscription), charge every table job the work done
        since the last pass (at the rate in force since then -- the caller
        has already added or removed its spinner), admit ``arriving``,
        complete what reached zero, and either schedule the next wake-up or,
        if R is back to <= C, give every job left its completion entry."""
        sim = self.sim
        now = sim.now
        jobs = self._jobs
        running = self._running
        if running:
            pieces = self._pieces
            for job, finish in running.items():
                rem = finish - now
                self._busy_time += job.remaining - rem
                if pieces and job in pieces:
                    job, rem = _Pieces(self, job,
                                       *pieces.pop(job))._retire(now)
                job.remaining = rem
                jobs.append(job)
            running.clear()
            done = 0.0
        else:
            done = self._rate * (now - self._last_update)
            self._busy_time += done * len(jobs)
        self._last_update = now
        self._version = version = self._version + 1
        floor = _EPS
        while True:
            finished = []
            min_rem = inf
            for job in jobs:
                job.remaining = rem = job.remaining - done
                if rem <= floor:
                    finished.append(job)
                elif rem < min_rem:
                    min_rem = rem
            if arriving is not None:        # owes its full work: not charged
                jobs.append(arriving)
                min_rem = min(min_rem, arriving.remaining)
                arriving = None
            for job in finished:
                jobs.remove(job)
                job.succeed()
            if not jobs:
                return
            r = len(jobs) + len(self._spinners)
            if r <= self.cores:
                callbacks = self._finish_callbacks
                for job in jobs:
                    running[job] = finish = now + job.remaining
                    _Wake(sim, finish, version, callbacks, job)
                jobs.clear()
                return
            self._rate = rate = self.cores / r
            when = now + min_rem / rate
            if when > now:
                break
            # Leftover work below the clock's float resolution can never be
            # drained by advancing time (now + delay == now would loop
            # forever); round it to done: one more pass that charges nothing
            # and completes everything within _EPS of the minimum.
            floor = min_rem + _EPS
            done = 0.0
        _Wake(sim, when, version, self._tick_callbacks)

    def _tick(self, wake: _Wake) -> None:
        if wake._value == self._version:    # else: superseded, a dead event
            self._reschedule()

    def _finish(self, entry: _Wake) -> None:
        """Fire a job whose completion entry is still live (no pass has
        retired it into the table): the entry's pop is the job's."""
        if entry._value != self._version:
            return                          # retired into a pass: dead
        job = entry.job
        del self._running[job]
        if self._pieces:
            self._pieces.pop(job, None)
        self._busy_time += job.remaining
        job._triggered = True
        callbacks, job.callbacks = job.callbacks, None
        for cb in callbacks:
            cb(job)
