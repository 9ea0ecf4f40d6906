"""Pipelined RPC machinery: bounded in-flight windows over one channel.

The synchronous engine path (`HatRpcEngine.call`) is strictly
one-RPC-at-a-time per channel -- exactly the contract of a blocking Thrift
client.  The paper's throughput results, however, depend on many requests
being in flight per connection, which the RDMA protocols were built for
(Direct-WriteIMM slots, eager rings).  This module supplies the pieces the
engine's asynchronous path (`call_async`) composes:

* :class:`CallHandle` -- the completion handle `call_async` returns:
  ``yield from handle.wait()`` blocks until the correlated response (or
  failure) arrives; an optional per-wait deadline abandons the call
  without disturbing its window neighbors.
* :class:`ChannelPipeline` -- per-channel in-flight bookkeeping: a bounded
  credit window sized from the channel plan (admission blocks when full --
  the backpressure), a receiver process that correlates responses by the
  ``seq`` the server echoes in the frame header (:mod:`repro.frame`) --
  completions may return out of submission order, e.g. after a retry --
  and a sweep hook that hands in-flight calls back to the engine when the
  channel dies (so idempotent calls can retry elsewhere).
* :class:`BoundedSeqidSet` -- the LRU-bounded (function, seqid) set behind
  the engine's idempotency gate, so a long-lived client's duplicate-send
  guard does not grow one entry per call forever.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import islice
from typing import Any, Deque, Dict, List, Optional

from repro import frame
from repro.thrift.errors import TTransportException

__all__ = [
    "BoundedSeqidSet",
    "CallHandle",
    "ChannelPipeline",
    "PipelineDead",
]

#: completed (function, seqid) keys a :class:`BoundedSeqidSet` keeps
SEQID_CAP = 4096


class BoundedSeqidSet:
    """Insertion-ordered set of (function, seqid) keys capped at
    :data:`SEQID_CAP`.

    The engine's idempotency gate only needs to recognize *recent*
    duplicates (a retry races its original by at most the in-flight
    window, not by thousands of calls), so the oldest entries are evicted
    once the cap is reached -- a long-lived client no longer leaks one
    tuple per call forever.

    A seqid whose call is still in flight must never be evicted, whatever
    the cap pressure: losing it silently re-opens the duplicate-send window
    the gate exists to close.  Callers ``add(key, pinned=True)`` when the
    message reaches the wire and :meth:`unpin` on completion; eviction only
    ever removes unpinned (completed) entries, growing past the cap
    transiently if a full window of stalled calls pins everything.
    """

    def __init__(self):
        # OrderedDict, not dict: a dict iterates from slot 0 past every
        # deleted head entry, so finding the oldest key would cost O(cap).
        self._keys: "OrderedDict[Any, None]" = OrderedDict()
        self._pinned: set = set()            # live (in-flight) keys
        self.evictions = 0

    def add(self, key, pinned: bool = False) -> None:
        self._keys.pop(key, None)            # refresh recency
        self._keys[key] = None
        if pinned:
            self._pinned.add(key)
        self._evict()

    def unpin(self, key) -> None:
        """The call behind ``key`` completed: the entry stays (it still
        gates duplicates) but becomes evictable under cap pressure."""
        self._pinned.discard(key)
        self._evict()

    def pinned(self, key) -> bool:
        return key in self._pinned

    def _evict(self) -> None:
        over = len(self._keys) - SEQID_CAP
        if over <= 0:
            return
        # Oldest first, skipping live keys, stopping at ``over``: the walk
        # touches the victims and the pinned keys ahead of them, never the
        # whole ledger (this runs on every add and unpin at the cap).
        unpinned = (k for k in self._keys if k not in self._pinned)
        for key in list(islice(unpinned, over)):
            del self._keys[key]
            self.evictions += 1

    def discard(self, key) -> None:
        self._keys.pop(key, None)
        self._pinned.discard(key)

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BoundedSeqidSet(len={len(self._keys)}, cap={SEQID_CAP}, "
                f"pinned={len(self._pinned)})")


class CallHandle:
    """Completion handle for one asynchronous call.

    The engine resolves it from the pipeline's receiver process; the
    caller blocks on :meth:`wait` (or polls :attr:`done` / calls
    :meth:`result` after completion).  Failures are *stored*, never raised
    into the simulator's event loop -- they surface when (and only when)
    the caller waits.
    """

    def __init__(self, sim, fn: str):
        self.sim = sim
        self.fn = fn
        self.done = False
        #: a deadline expired in wait(); the call stays in flight and its
        #: eventual completion is dropped silently
        self.abandoned = False
        self.channel = -1
        #: sim time the call completed (set at resolution -- benchmarks
        #: read it for per-call latency even when waits batch up later)
        self.t_done: Optional[float] = None
        self._value = None
        self._error: Optional[BaseException] = None
        self._event = sim.event()
        self._engine = None        # set by the engine for fault accounting

    def _resolve(self, value) -> None:
        if self.done:
            return
        self.done = True
        self.t_done = self.sim.now
        self._value = value
        self._event.succeed(value)

    def _fail(self, exc: BaseException) -> None:
        if self.done:
            return
        self.done = True
        self.t_done = self.sim.now
        self._error = exc
        # succeed(), not fail(): the exception belongs to whoever waits on
        # the handle, and an unobserved failed event would crash the
        # simulator's event loop.
        self._event.succeed(None)

    def result(self):
        """The response bytes (raises the stored failure) -- only valid
        once :attr:`done` is True."""
        if not self.done:
            raise RuntimeError(f"call {self.fn!r} is still in flight")
        if self._error is not None:
            raise self._error
        return self._value

    def wait(self, timeout: Optional[float] = None):
        """Coroutine: block until the call completes; returns the response
        bytes or raises the call's failure.

        With ``timeout``, a still-in-flight call is *abandoned* after the
        budget: TIMED_OUT is raised, but the wire state is untouched --
        window neighbors keep flowing and the late response is discarded
        when it eventually arrives.
        """
        if not self.done and timeout is not None:
            expiry = self.sim.timeout(timeout)
            yield self.sim.any_of([self._event, expiry])
            if not self.done:
                self.abandoned = True
                if self._engine is not None:
                    self._engine._note_abandoned(self)
                raise TTransportException(
                    TTransportException.TIMED_OUT,
                    f"{self.fn} exceeded its {timeout * 1e6:.0f}us deadline "
                    "(abandoned in flight)")
        elif not self.done:
            yield self._event
        return self.result()


class PipelineDead(RuntimeError):
    """The pipeline's channel died before this call reached the wire."""


class ChannelPipeline:
    """Bounded in-flight window over one engine channel.

    Two modes, chosen from the channel's capability:

    * **pipelined** (``chan.supports_pipelining``) -- requests carry their
      window sequence number in the frame header and go out via the
      protocol's split
      ``post()``; a single receiver process pairs ``recv()`` completions
      back to entries by sequence number.  Up to ``window`` calls overlap
      on the one connection.
    * **solo** (everything else: TCP, rendezvous protocols, RFP) -- the
      window degrades to 1 and each call runs the classic blocking
      ``chan.call`` in its own process, preserving the async API without
      violating the protocol's single-outstanding contract.

    Entries are duck-typed: ``wire(seq)``, ``complete(header, body)``,
    ``fail(exc)``, plus ``oneway`` / ``act`` for solo mode
    (the engine's ``_PendingCall``).  When the channel dies, every
    in-flight entry is handed to ``on_dead(pipe, entries, exc)`` in
    submission order so the engine can retry or fail them.
    """

    def __init__(self, sim, chan, window: int, index: int = 0,
                 error_types: tuple = (Exception,), on_dead=None,
                 occupancy=None):
        self.sim = sim
        self.chan = chan
        self.index = index
        self.pipelined = bool(getattr(chan, "supports_pipelining", False))
        self.window = max(1, int(window)) if self.pipelined else 1
        self._errors = tuple(error_types)
        self.on_dead = on_dead
        self._occupancy = occupancy          # Gauge or None
        self._credits = self.window
        self._waiters: Deque[Any] = deque()
        self._next_seq = 0
        self.inflight: Dict[int, Any] = {}   # seq -> entry (pipelined mode)
        self._solo = 0                       # outstanding solo-mode calls
        self._receiver = None
        self.dead = False
        self.posted = 0
        self.completed = 0
        self.high_water = 0

    @property
    def pending(self) -> int:
        return len(self.inflight) + self._solo

    # -- window credits ------------------------------------------------------
    def _acquire(self):
        while self._credits <= 0 and not self.dead:
            ev = self.sim.event()
            self._waiters.append(ev)
            yield ev
        if self.dead:
            raise PipelineDead(
                f"channel {self.index} died while waiting for a window slot")
        self._credits -= 1

    def _release(self) -> None:
        self._credits += 1
        if self._occupancy is not None:
            self._occupancy.set(self.pending)
        if self._waiters:
            self._waiters.popleft().succeed()

    # -- submission ----------------------------------------------------------
    def submit(self, entry):
        """Coroutine: admit one call under the window (backpressure blocks
        here), then put it on the wire.  Raises :class:`PipelineDead` if
        the channel fails before this call is posted -- the caller re-picks
        a channel; entries that *were* posted go through ``on_dead``."""
        if self.dead:
            raise PipelineDead(f"channel {self.index} is dead")
        yield from self._acquire()
        if not self.pipelined:
            self._solo += 1
            self.high_water = max(self.high_water, self.pending)
            if self._occupancy is not None:
                self._occupancy.set(self.pending)
            self.sim.process(self._solo_call(entry),
                             name=f"solo-call-ch{self.index}")
            return
        self._next_seq += 1
        seq = self._next_seq
        self.inflight[seq] = entry
        self.high_water = max(self.high_water, self.pending)
        if self._occupancy is not None:
            self._occupancy.set(self.pending)
        try:
            yield from self.chan.post(entry.wire(seq))
        except BaseException as exc:
            self.inflight.pop(seq, None)
            self._release()
            if isinstance(exc, self._errors):
                # The post hit a dead channel: sweep the *other* in-flight
                # entries; this one goes back to the caller (as the cause
                # of PipelineDead) so the engine retries or fails it.
                self._die(exc)
                raise PipelineDead(str(exc)) from exc
            raise
        self.posted += 1
        self._ensure_receiver()

    def _solo_call(self, entry):
        try:
            resp = yield from self.chan.call(entry.wire(None),
                                             oneway=entry.oneway,
                                             trace=entry.act)
        except BaseException as exc:
            self._solo -= 1
            self._release()
            if isinstance(exc, self._errors):
                self._die(exc, extra=(entry,))
            else:
                entry.fail(exc)
            return
        self._solo -= 1
        self.completed += 1
        self._release()
        entry.complete(*frame.split(resp))

    # -- completion ----------------------------------------------------------
    def _ensure_receiver(self) -> None:
        if self._receiver is None and self.inflight:
            p = self.sim.process(self._receive_loop(),
                                 name=f"pipeline-recv-ch{self.index}")
            # Completions belong to the entries they resolve, not to
            # whichever call happened to spawn the receiver.
            p.trace_ctx = None
            self._receiver = p

    def _receive_loop(self):
        try:
            while self.inflight:
                # Handed straight on: the loop keeps no response, body or
                # entry while it waits for the next one.
                self._deliver((yield from self.chan.recv()))
        except BaseException as exc:
            self._receiver = None
            if isinstance(exc, self._errors):
                self._die(exc)
                return
            raise
        self._receiver = None

    def _deliver(self, resp: bytes) -> None:
        """Complete the in-flight entry ``resp`` answers."""
        header, body = frame.split(resp)
        seq = header.seq
        if seq is None:
            # Uncorrelated response (shouldn't happen on a pipelined
            # channel): pair it FIFO.
            seq = min(self.inflight)
        entry = self.inflight.pop(seq, None)
        if entry is None:
            return        # response to an unknown/abandoned seq
        self.completed += 1
        self._release()
        entry.complete(header, body)

    # -- failure -------------------------------------------------------------
    def _die(self, exc: BaseException, extra: tuple = ()) -> None:
        """Mark the pipeline dead and sweep every in-flight entry."""
        if self.dead:
            entries: List[Any] = list(extra)
        else:
            self.dead = True
            entries = list(extra) + [self.inflight[k]
                                     for k in sorted(self.inflight)]
            self.inflight.clear()
        self._credits = self.window
        while self._waiters:
            self._waiters.popleft().succeed()   # they observe dead -> re-pick
        if self._occupancy is not None:
            self._occupancy.set(0)
        if not entries:
            return
        if self.on_dead is not None:
            self.on_dead(self, entries, exc)
        else:
            for entry in entries:
                entry.fail(exc)

    def drain(self) -> List[Any]:
        """Remove and return every in-flight entry (engine close path)."""
        self.dead = True
        entries = [self.inflight[k] for k in sorted(self.inflight)]
        self.inflight.clear()
        self._credits = self.window
        while self._waiters:
            self._waiters.popleft().succeed()
        if self._occupancy is not None:
            self._occupancy.set(0)
        return entries
