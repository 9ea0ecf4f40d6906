"""Declarative fault plans.

A :class:`FaultPlan` is an immutable schedule of fault events against named
nodes, plus a seed.  Armed onto a testbed by
:class:`~repro.faults.injector.FaultInjector`, the same (plan, seed,
workload) triple always produces the identical simulated execution -- every
fault either fires at a fixed simulated time or draws from an RNG seeded
purely from (plan seed, event index).

Event types
-----------
* :class:`LinkFlap` -- a node's port goes hard-down for a window; traffic
  crossing it fails (``WCStatus.RETRY_EXC_ERR`` on verbs, connection reset
  on TCP).
* :class:`PacketLoss` -- a seeded per-message drop probability over a
  window; reliable transports retransmit, so loss surfaces as latency.
* :class:`QPError` -- force a node's queue pair(s) to the ERROR state at an
  instant (cable pull / HCA fault on one connection).
* :class:`ServerCrash` -- fail-stop the node at ``at``, restore it
  ``downtime`` later.  Crash kills live QPs, listeners, and TCP
  connections; durable state (e.g. HatKV's LMDB) survives.
* :class:`OverloadStorm` -- a burst of ``clients`` extra load generators
  from ``node`` over a window.  Pure load, no broken hardware: the injector
  cannot fabricate RPC traffic itself, so scenarios register the driver via
  :meth:`~repro.faults.injector.FaultInjector.on_storm` and the injector
  starts/stops it on schedule (deterministically, like every other event).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

__all__ = ["FaultPlan", "LinkFlap", "OverloadStorm", "PacketLoss", "QPError",
           "ServerCrash"]


@dataclass(frozen=True)
class LinkFlap:
    node: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class PacketLoss:
    node: str
    start: float
    duration: float
    drop_prob: float

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class QPError:
    node: str
    at: float
    #: a specific qp_num, or None for every QP on the node's device
    qp_num: Optional[int] = None


@dataclass(frozen=True)
class ServerCrash:
    node: str
    at: float
    downtime: float


@dataclass(frozen=True)
class OverloadStorm:
    node: str                 # node the storm's clients run on
    start: float
    duration: float
    clients: int = 32         # extra load generators during the window

    @property
    def end(self) -> float:
        return self.start + self.duration


FaultEvent = Union[LinkFlap, PacketLoss, QPError, ServerCrash, OverloadStorm]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered schedule of fault events."""

    seed: int = 0
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for ev in self.events:
            if not isinstance(ev, (LinkFlap, PacketLoss, QPError,
                                   ServerCrash, OverloadStorm)):
                raise TypeError(f"unknown fault event type: {ev!r}")

    def event_seed(self, index: int) -> int:
        """Per-event RNG seed: a pure function of (plan seed, event index)."""
        return self.seed * 1_000_003 + index
