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

Cost, and what is on the event heap.  Every change of state (a job or a
spinner arriving or leaving, a wake-up firing) is one pass over the job
table, :meth:`CpuScheduler._reschedule`: it charges each job the work done
since the previous pass, completes the jobs that reached zero, finds the
least remaining work and schedules one wake-up for the moment that job will
finish.  So a change costs O(jobs) and exactly one wake-up is *live* per
scheduler -- but the wake-ups it superseded are not removed: they stay on
the heap, carry the scheduler version they were computed for, and are
popped, counted in ``events_executed`` and discarded when their time comes
(about 70 k of the 353 k events of perfbench's ``ycsb_b``).  A pending
wake-up is never *reused* either, even when the earliest finish time did not
move: the recomputed ``now + min_rem / rate`` can differ from the older
value in the last ulp, and the older heap entry keeps an older tie-break
sequence number, so reusing it reorders events that share its timestamp.
Both effects change the order in which the rest of the model runs -- the
results stay statistically the same but no longer bit-identical
(``sim_digest``, ``tests/sim/test_kernel_golden.py``).  Cancelling or reusing
wake-ups therefore belongs with the virtual-time GPS rewrite (ROADMAP item
1(c)), which reorders the float arithmetic anyway and refreshes the
baselines once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappush
from math import inf
from typing import List, Optional

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
    the CPU work the scheduler still owes it."""

    __slots__ = ("remaining",)


class _Wake(Event):
    """A scheduler wake-up: born triggered and on the heap (as a
    :class:`~repro.sim.core.Timeout` is), its value the scheduler version it
    was computed for and its callbacks the scheduler's shared ``(_tick,)``."""

    __slots__ = ()

    def __init__(self, sim: Simulator, when: float, version: int,
                 callbacks: tuple):
        self.sim = sim
        self.callbacks = callbacks
        self._value = version
        self._exc = None
        self._triggered = True
        self.defused = False
        sim._eid = eid = sim._eid + 1
        heappush(sim._heap, (when, eid, self))


class CpuScheduler:
    """GPS scheduler over ``cores`` identical cores."""

    def __init__(self, sim: Simulator, cores: int):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.sim = sim
        self.cores = cores
        self._jobs: List[_Job] = []     # in arrival order
        self._spinners: set[int] = set()
        self._ids = itertools.count(1)
        self._last_update = 0.0
        #: share of a core each job has received since ``_last_update``;
        #: recomputed by every pass that leaves a job behind (with no jobs
        #: there is nothing it could be applied to)
        self._rate = 1.0
        self._version = 0
        self._busy_time = 0.0  # integrated core-seconds of useful work
        self._wake_callbacks = (self._tick,)

    # -- public API ---------------------------------------------------------
    @property
    def runnable(self) -> int:
        return len(self._jobs) + len(self._spinners)

    @property
    def job_rate(self) -> float:
        """Fraction of one core each runnable thread currently receives."""
        r = self.runnable
        return 1.0 if r <= self.cores else self.cores / r

    @property
    def busy_core_seconds(self) -> float:
        """Total useful (finite-job) work completed so far, in core-seconds."""
        self._advance()
        return self._busy_time

    def utilization(self, elapsed: float) -> float:
        """Mean fraction of the node's cores doing useful work over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_core_seconds / (elapsed * self.cores)

    def compute(self, cpu_seconds: float) -> Event:
        """Consume ``cpu_seconds`` of CPU work; the event fires when done."""
        job = _Job(self.sim)
        if cpu_seconds <= 0:
            return job.succeed()
        job.remaining = cpu_seconds
        self._reschedule(job)
        return job

    def spin_begin(self) -> SpinToken:
        """Mark the calling thread as a busy-polling (always runnable) thread."""
        sid = next(self._ids)
        self._spinners.add(sid)
        self._reschedule()
        return SpinToken(self, sid)

    def spin_end(self, token: SpinToken) -> None:
        if not token.active:
            raise SimulationError("spin_end() on an inactive token")
        token.active = False
        self._spinners.discard(token.sid)
        self._reschedule()

    # -- internals ------------------------------------------------------------
    # Bit-identity: the digests compare raw doubles, so the *sequence* of
    # float operations below is part of the model.  Each job's remaining work
    # is decremented by ``rate * dt`` once per pass (never by an accumulated
    # or re-associated amount), the wake-up is ``now + min_rem / rate``, and
    # finished jobs complete in table (arrival) order.

    def _advance(self) -> None:
        """Charge the work done since the last pass without rescheduling
        (the observers' half of :meth:`_reschedule`: a probe that reads
        ``busy_core_seconds`` mid-run splits a job's decrement in two, and
        always has)."""
        now = self.sim.now
        done = self._rate * (now - self._last_update)
        self._last_update = now
        self._busy_time += done * len(self._jobs)
        for job in self._jobs:
            job.remaining -= done

    def _reschedule(self, arriving: Optional[_Job] = None) -> None:
        """The one pass per change of state: charge every job the work done
        since the last pass (at the rate in force since then -- the caller
        has already added or removed its spinner), admit ``arriving``,
        complete what reached zero and schedule the next wake-up."""
        sim = self.sim
        now = sim.now
        jobs = self._jobs
        done = self._rate * (now - self._last_update)
        self._last_update = now
        self._busy_time += done * len(jobs)
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
                rem = arriving.remaining
                if rem <= floor:
                    finished.append(arriving)
                elif rem < min_rem:
                    min_rem = rem
                arriving = None
            for job in finished:
                jobs.remove(job)
                job.succeed()
            if not jobs:
                return
            r = len(jobs) + len(self._spinners)
            self._rate = rate = 1.0 if r <= self.cores else self.cores / r
            when = now + min_rem / rate
            if when > now:
                break
            # Leftover work below the clock's float resolution can never be
            # drained by advancing time (now + delay == now would loop
            # forever); round it to done: one more pass that charges nothing
            # and completes everything within _EPS of the minimum.
            floor = min_rem + _EPS
            done = 0.0
        _Wake(sim, when, version, self._wake_callbacks)

    def _tick(self, wake: Event) -> None:
        if wake._value == self._version:    # else: superseded, a dead event
            self._reschedule()
