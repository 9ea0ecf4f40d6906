"""Failure-handling policy objects for the hint-aware engine.

Two small, deterministic pieces:

* :class:`RetryPolicy` -- capped exponential backoff with jitter drawn from
  a *seeded* RNG the engine owns, so two runs with the same seed produce
  byte-identical retry schedules (the fault-replay guarantee);
* :class:`CircuitBreaker` -- a per-channel consecutive-failure breaker with
  a timed OPEN -> HALF_OPEN probe cycle, evaluated purely against the
  simulated clock.

Neither knows anything about channels or protocols; the engine composes
them (see :meth:`repro.core.engine.HatRpcEngine.call`) and counts each
recovery decision in its :class:`FaultCounters`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional

from repro.sim.units import us

__all__ = ["CircuitBreaker", "FaultCounters", "RetryBudget", "RetryPolicy"]


@dataclass
class FaultCounters:
    """Recovery-path instrumentation, owned by the engine.

    Every recovery mechanism bumps exactly one counter per decision, so a
    scenario's counters are as replayable as its fault trace.
    """

    retries: int = 0                  # backoff-then-resend decisions
    timeouts: int = 0                 # per-call deadlines that fired
    reconnects: int = 0               # channels discarded for reopening
    failovers: int = 0                # calls routed off their primary channel
    failbacks: int = 0                # calls returned to a recovered primary
    breaker_opens: int = 0            # circuit-breaker CLOSED/HALF_OPEN -> OPEN
    blind_retries_prevented: int = 0  # non-idempotent resends refused
    channel_failures: int = 0         # transport errors observed on channels
    rejections: int = 0               # typed REJECTED responses received
    rejected_retries: int = 0         # rejection retries taken (post-backoff)
    budget_exhausted: int = 0         # retries refused by the retry budget

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff.

    ``backoff(attempt, rng)`` gives the wait before retry number
    ``attempt`` (0-based): ``base_backoff * multiplier**attempt`` capped at
    ``max_backoff``, then spread by ``+-jitter`` (a fraction) using the
    caller's RNG.  With a seeded RNG the schedule is deterministic.
    """

    max_attempts: int = 4
    base_backoff: float = 50 * us
    multiplier: float = 2.0
    max_backoff: float = 1000 * us
    jitter: float = 0.2

    def backoff(self, attempt: int, rng: Optional[random.Random] = None
                ) -> float:
        raw = min(self.base_backoff * self.multiplier ** attempt,
                  self.max_backoff)
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw


#: consecutive failures that open a :class:`CircuitBreaker`
BREAKER_THRESHOLD = 3
#: sim time an open breaker waits before letting one probe call through
BREAKER_RESET_AFTER = 1000 * us


class CircuitBreaker:
    """Consecutive-failure breaker over the simulated clock.

    CLOSED -> (:data:`BREAKER_THRESHOLD` consecutive failures) -> OPEN ->
    (:data:`BREAKER_RESET_AFTER` of sim time) -> HALF_OPEN -> one probe
    call -> CLOSED on success / OPEN again on failure.

    The engine's connections are single-outstanding, so HALF_OPEN needs no
    probe-in-flight bookkeeping: at most one call can be probing.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, sim,
                 on_open: Optional[Callable[["CircuitBreaker"], None]] = None):
        self.sim = sim
        self.on_open = on_open
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = float("-inf")
        self.opens = 0

    def allow(self) -> bool:
        """May a call go through right now?"""
        if self.state == self.OPEN:
            if self.sim.now - self.opened_at >= BREAKER_RESET_AFTER:
                self.state = self.HALF_OPEN
            else:
                return False
        return True

    def record_success(self) -> None:
        self.failures = 0
        self.state = self.CLOSED

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or \
                self.failures >= BREAKER_THRESHOLD:
            if self.state != self.OPEN:
                self.opens += 1
                if self.on_open is not None:
                    self.on_open(self)
            self.state = self.OPEN
            self.opened_at = self.sim.now
            self.failures = 0


class RetryBudget:
    """A token bucket bounding a client's aggregate retry *rate*.

    Retries amplify overload: a server shedding load makes every client
    retry, which multiplies the offered load exactly when the server can
    least absorb it.  The budget caps that feedback -- ``cap`` tokens,
    refilled at ``refill_rate`` tokens per second of simulated time; every
    retry (rejection or transport) spends one.  An empty bucket means the
    retry is *not* taken and the typed error surfaces immediately, so the
    steady-state retry rate of any one engine never exceeds
    ``refill_rate`` however hard the storm.

    Evaluated purely against the simulated clock: deterministic, and
    shareable across the engines of one process (a shard router passes one
    budget to all its per-shard engines so the *sum* of their retries is
    what the cap bounds).
    """

    def __init__(self, sim, cap: float = 16.0, refill_rate: float = 1000.0):
        if cap < 1.0:
            raise ValueError("cap must be >= 1")
        if refill_rate <= 0.0:
            raise ValueError("refill_rate must be > 0")
        self.sim = sim
        self.cap = float(cap)
        self.refill_rate = float(refill_rate)
        self.tokens = float(cap)
        self._last = sim.now
        self.spent = 0
        self.denied = 0

    def _refill(self) -> None:
        now = self.sim.now
        if now > self._last:
            self.tokens = min(self.cap,
                              self.tokens + (now - self._last)
                              * self.refill_rate)
            self._last = now

    def try_spend(self) -> bool:
        """Take one retry token; False = budget exhausted, fail fast."""
        self._refill()
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False
