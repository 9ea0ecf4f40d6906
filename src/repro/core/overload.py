"""Overload protection: server admission control and typed rejection.

Three pieces compose the graceful-degradation path:

* :func:`gated` -- the one place a server admits a request: it runs it
  under the gate, or reports the ``retry_after`` the server then returns
  as a body-less frame header (:mod:`repro.frame`) in place of a response.
  The gate runs *before* dispatch, so a rejected request provably never
  executed: re-sending it is safe even for non-idempotent functions.
* :class:`AdmissionGate` -- a token/occupancy gate keyed off in-flight
  work.  Admission is priority-tiered against the ``priority`` IDL hint:
  low-priority traffic is refused once occupancy crosses
  ``low_fraction`` of capacity, normal at ``normal_fraction``, and
  high-priority only when the gate is completely full -- the shed-order
  guarantee (low strictly before high).  Rejections carry a
  ``retry_after`` that grows with occupancy, so a storm's retries spread
  out instead of synchronizing.
* :func:`peek_fn_name` -- a read-only parse of a Thrift binary
  message-begin, letting a server look up the function's resolved
  priority before paying for full deserialization.

The client half (the retry *budget* that keeps rejection retries from
amplifying a storm) lives in :class:`repro.core.resilience.RetryBudget`;
the engine composes both ends.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.sim.units import us

__all__ = [
    "AdmissionConfig",
    "AdmissionGate",
    "gated",
    "peek_fn_name",
]


def peek_fn_name(message: bytes) -> Optional[str]:
    """The function name of a strict Thrift binary message, or None.

    Read-only and allocation-light: header word, name length, name bytes.
    Anything malformed (short buffer, non-strict framing, absurd length)
    returns None -- the caller falls back to default-priority admission
    rather than guessing.
    """
    if len(message) < 8:
        return None
    header = struct.unpack_from("!i", message)[0]
    if header >= 0:                       # strict messages are negative
        return None
    (nlen,) = struct.unpack_from("!i", message, 4)
    if nlen < 0 or nlen > 512 or len(message) < 8 + nlen:
        return None
    try:
        return message[8:8 + nlen].decode("utf-8")
    except UnicodeDecodeError:
        return None


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for one server's admission gate.

    ``capacity`` is the total in-flight work the server accepts across
    every connection and channel; the per-priority fractions set where
    each tier starts shedding.  ``retry_after_base`` anchors the advised
    backoff; the advice scales up with occupancy so rejected clients of a
    deep queue wait longer than those of a barely-full one.
    """

    capacity: int = 64
    low_fraction: float = 0.5
    normal_fraction: float = 0.8
    retry_after_base: float = 200 * us

    def threshold(self, priority: str) -> int:
        frac = {"low": self.low_fraction,
                "normal": self.normal_fraction}.get(priority, 1.0)
        return max(1, int(self.capacity * frac))


class AdmissionGate:
    """Priority-tiered occupancy gate over a server's in-flight work.

    Not a coroutine -- admit/release are instantaneous bookkeeping, so the
    gate can sit on any request path (RDMA bytes handler, TCP connection
    loop) without perturbing event ordering.
    """

    def __init__(self, sim, config: Optional[AdmissionConfig] = None):
        self.sim = sim
        self.cfg = config or AdmissionConfig()
        self.inflight = 0
        self.high_water = 0
        self.admitted = 0
        self.rejected = 0
        self.shed_by_priority = {"low": 0, "normal": 0, "high": 0}
        #: observers called with the new mark each time ``high_water``
        #: advances (the phased bench harness annotates these live);
        #: exceptions are contained and counted in ``hook_errors``
        self.on_high_water: list = []
        self.hook_errors = 0
        reg = obs.current()
        if reg is not None:
            self._m_occupancy = reg.gauge("admission.occupancy")
            self._m_admitted = reg.counter("admission.admitted")
            self._m_rejected = reg.counter("admission.rejected")
            self._m_shed = {p: reg.counter(f"admission.shed.{p}")
                            for p in ("low", "normal", "high")}
        else:
            self._m_occupancy = None
            self._m_admitted = None
            self._m_rejected = None
            self._m_shed = None

    def admit(self, priority: str = "normal") -> Optional[float]:
        """None = admitted (caller owes a :meth:`release`); a float is the
        advised ``retry_after`` of a rejection."""
        if self.inflight >= self.cfg.threshold(priority):
            self.rejected += 1
            self.shed_by_priority[priority] = \
                self.shed_by_priority.get(priority, 0) + 1
            if self._m_rejected is not None:
                self._m_rejected.inc()
                self._m_shed.get(priority, self._m_shed["normal"]).inc()
            # Deeper queue -> longer advice; deterministic, so replayable.
            occupancy = self.inflight / max(1, self.cfg.capacity)
            return self.cfg.retry_after_base * (1.0 + occupancy)
        self.inflight += 1
        self.admitted += 1
        # Gauge first: observer hooks run below, and a raising hook must
        # not leave ``admission.occupancy`` lagging the slot it consumed.
        if self._m_occupancy is not None:
            self._m_occupancy.set(self.inflight)
            self._m_admitted.inc()
        if self.inflight > self.high_water:
            self.high_water = self.inflight
            for hook in self.on_high_water:
                try:
                    hook(self.high_water)
                except Exception:
                    # Observers are best-effort annotators; a broken one
                    # must not poison the admission path (the caller would
                    # never reach its release(), under-reporting occupancy
                    # forever after).
                    self.hook_errors += 1
        return None

    def release(self) -> None:
        if self.inflight > 0:
            self.inflight -= 1
        if self._m_occupancy is not None:
            self._m_occupancy.set(self.inflight)


def gated(gate: AdmissionGate, priorities, message: bytes, ctx, sim, run):
    """Coroutine: ``run()`` the request that ``message`` starts if
    ``gate`` admits it at its function's priority: ``(None, the result)``,
    or ``(retry_after, None)`` for a request refused.  ``ctx`` (the
    request's server span, or None) gets the ``admission`` stage, and a
    shed request's root ends ``rejected``.

    Admission runs before deserialization, let alone dispatch: only the
    function name is peeked, so a rejection costs the server a header
    parse and one tiny reply -- that cheapness is what makes shedding work.
    """
    priority = priorities.get(peek_fn_name(message), "normal")
    retry_after = gate.admit(priority)
    if retry_after is not None:
        if ctx is not None:
            ctx.stage("admission", sim.now, sim.now,
                      admitted=False, priority=priority)
            ctx.root.status = "rejected"
        return retry_after, None
    # Everything after a successful admit -- the trace stage included --
    # sits inside the try, so any dispatch-path exception still releases
    # the slot and re-syncs the occupancy gauge (a leaked slot would shed
    # load forever).
    try:
        if ctx is not None:
            ctx.stage("admission", sim.now, sim.now,
                      admitted=True, priority=priority)
        return None, (yield from run())
    finally:
        gate.release()
