"""Elastic resharding: live key migration between two ring sizes.

A consistent-hash ring owns keys by hash arcs, so resizing from ``n`` to
``m`` shards remaps exactly the arcs claimed by the added (or released by
the removed) vnode points -- ``|Δvnodes| / |vnodes|`` of the key space,
nothing else.  This module turns that delta into a live migration:

* :func:`ring_segments` walks the union of both rings' points and yields
  the maximal arcs of constant (old owner, new owner);
* :class:`MigrationPlan` materializes the arcs whose *replica set*
  changes as :class:`RangeTask` s, each with its own
  ``PENDING → MIGRATING → CUTOVER → DONE`` state, dirty set, in-flight
  write count, and cutover fence;
* :class:`HandoffGuard` is the server-side half of the fence: once a
  range is DONE the old primary *refuses* writes for it, so a Put can
  never be acknowledged by two primaries even if a buggy router routes
  one late;
* :class:`ResizeTrigger` watches the sampled ``hatkv.keys.shard<i>``
  series and fires a resize when mean keys per shard crosses a
  threshold.

The protocol per range (driven by
:meth:`repro.hatkv.sharding.ShardedKVCluster.resize`):

1. **MIGRATING** -- the old owner streams a snapshot of the range to the
   new holders via pipelined single-key Put RPCs; writes keep landing on
   the old replica set (authoritative) and every acknowledged write is
   dirty-marked.  Unfenced catch-up rounds drain the dirty set while
   traffic flows.
2. **CUTOVER** -- the write fence closes: new writes to the range park on
   the fence event, in-flight ones drain (counted by the routers), and
   one final fenced delta makes the new holders exact.  Reads keep
   flowing to the old owner throughout -- its copy is frozen by the
   fence, so they stay fresh.
3. **DONE** -- the routing epoch bumps, the fence lifts (parked writers
   re-resolve to the new owner), and every connected router drops the
   range's cached entries.  For a *forwarding window* after the flip the
   old copy is retained and a miss on the new owner falls back to it
   (dual-read); cleanup then deletes the handed-off copies.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, \
    Tuple

from repro.sim.core import Event, SimulationError
from repro.sim.units import us

__all__ = ["FORWARD_WINDOW", "HandoffGuard", "MigrationPlan",
           "RangeHandedOffError", "RangeState", "RangeTask", "ResizeTrigger",
           "RING_SPACE", "VnodeRange", "coalesce_ranges", "hash_key",
           "ring_segments"]

#: the ring's hash space: 64-bit truncated md5 (see :func:`hash_key`).
RING_SPACE = 1 << 64

#: how long after a range's cutover the old copy keeps serving dual-read
#: fallbacks before cleanup deletes it.
FORWARD_WINDOW = 200 * us


def hash_key(data: bytes) -> int:
    """Ring placement hash -- md5 so it is identical across processes and
    runs (Python's salted ``hash()`` is not replayable)."""
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


# -- ring deltas --------------------------------------------------------------

@dataclass(frozen=True)
class VnodeRange:
    """One half-open hash arc ``[lo, hi)`` (wrapping when ``hi <= lo``)
    whose primary ownership moves ``src`` → ``dst`` across a resize."""

    lo: int
    hi: int
    src: int
    dst: int

    def contains(self, h: int) -> bool:
        if self.lo < self.hi:
            return self.lo <= h < self.hi
        return h >= self.lo or h < self.hi

    @property
    def measure(self) -> int:
        """Arc length in hash units (the remapped-fraction numerator)."""
        return (self.hi - self.lo) % RING_SPACE


def ring_segments(old_ring, new_ring) -> Iterator[Tuple[int, int, int, int]]:
    """Yield ``(lo, hi, old_owner, new_owner)`` for every maximal arc of
    constant ownership across the union of both rings' vnode points.

    Every hash in ``[lo, hi)`` maps to ``old_owner`` under ``old_ring``
    and ``new_owner`` under ``new_ring`` (ownership is the first vnode
    point strictly clockwise, so no union segment straddles an owner
    change).  The final segment wraps past the highest point.
    """
    pts = sorted(set(old_ring._hashes) | set(new_ring._hashes))
    for i, lo in enumerate(pts):
        hi = pts[(i + 1) % len(pts)]
        yield lo, hi, old_ring.owner_of_hash(lo), new_ring.owner_of_hash(lo)


def coalesce_ranges(ranges: Sequence[VnodeRange]) -> List[VnodeRange]:
    """Merge adjacent arcs with the same (src, dst) into maximal runs."""
    out: List[VnodeRange] = []
    for r in sorted(ranges, key=lambda r: r.lo):
        if out and out[-1].hi == r.lo and (out[-1].src, out[-1].dst) == \
                (r.src, r.dst):
            out[-1] = VnodeRange(out[-1].lo, r.hi, r.src, r.dst)
        else:
            out.append(r)
    return out


# -- the migration plan -------------------------------------------------------

class RangeState(IntEnum):
    PENDING = 0
    MIGRATING = 1
    CUTOVER = 2
    DONE = 3


@dataclass
class RangeTask:
    """One migrating arc: hash bounds, old/new replica sets, live state.

    ``src``/``dst`` are full replica-set tuples (primary first); the task
    exists because they differ -- a pure replica reshuffle (primary
    unchanged, successors shifted by the shard-count change) migrates
    through exactly the same machinery as a primary move.
    """

    lo: int
    hi: int
    src: Tuple[int, ...]
    dst: Tuple[int, ...]
    state: RangeState = RangeState.PENDING
    keys_total: int = 0
    keys_moved: int = 0
    bytes_moved: int = 0
    #: keys written (acked) while the task was live -- the catch-up feed.
    dirty: Set[bytes] = field(default_factory=set)
    #: every key ever streamed or dirtied -- the cleanup feed.
    seen: Set[bytes] = field(default_factory=set)
    #: router-counted writes currently in flight against the old set.
    inflight: int = 0
    done_epoch: Optional[int] = None
    done_at: Optional[float] = None
    cleaned: bool = False
    fence: Optional[Event] = None       # created at CUTOVER, fired at DONE
    _drain: Optional[Event] = None      # cutover's in-flight write drain

    def contains(self, h: int) -> bool:
        if self.lo < self.hi:
            return self.lo <= h < self.hi
        return h >= self.lo or h < self.hi

    def settle_write(self, key: bytes) -> None:
        """Settle one write counted by :meth:`MigrationPlan.write_begin`:
        dirty-mark the key (a partially applied write must be re-streamed
        no less than a completed one) and release the cutover drain when
        the last in-flight write leaves."""
        self.inflight -= 1
        if self.state < RangeState.DONE:
            self.dirty.add(key)
            self.seen.add(key)
        if self.inflight == 0 and self._drain is not None \
                and not self._drain.triggered:
            self._drain.succeed()

    @property
    def copy_targets(self) -> Tuple[int, ...]:
        return tuple(s for s in self.dst if s not in self.src)

    @property
    def drop_targets(self) -> Tuple[int, ...]:
        return tuple(s for s in self.src if s not in self.dst)


def _replica_sets(n_shards: int, replicas: int) -> List[Tuple[int, ...]]:
    """Replica set per primary: the owner plus its ``replicas - 1``
    successors in shard order."""
    return [tuple((p + j) % n_shards for j in range(replicas))
            for p in range(n_shards)]


class MigrationPlan:
    """The remapped ranges of one resize, with live per-range state.

    Built from the old and new rings: a :class:`RangeTask` per maximal
    arc whose replica set changes (``replicas`` successors in each ring's
    own shard count).  The plan is the shared routing truth while a
    migration runs -- routers resolve preference, write gates, and
    dual-read fallbacks against it, and the cluster's driver walks its
    tasks through their states.

    Every lookup is total over the hash space: an arc the resize does not
    touch has the same replica set under both rings and answers from the
    new one.  A plan from a ring to itself has no tasks and *is* that
    ring's static routing -- how the cluster routes outside a resize.
    """

    def __init__(self, sim, old_ring, new_ring, replicas: int = 1):
        if replicas > min(old_ring.n_shards, new_ring.n_shards):
            raise ValueError("cannot resize below the replica count")
        self.sim = sim
        self.old_ring = old_ring
        self.new_ring = new_ring
        self.replicas = replicas
        # replica set per primary, under each ring's own shard count
        olds = _replica_sets(old_ring.n_shards, replicas)
        news = self._new_sets = _replica_sets(new_ring.n_shards, replicas)
        # a task per maximal arc whose replica set changes
        moved = coalesce_ranges(
            [VnodeRange(lo, hi, a, b)
             for lo, hi, a, b in ring_segments(old_ring, new_ring)
             if olds[a] != news[b]])
        tasks = [RangeTask(r.lo, r.hi, olds[r.src], news[r.dst])
                 for r in moved]
        # One arc at most wraps past the top of the hash space; keep it
        # aside so `covering` stays a single bisect.
        self._wrapped = next((t for t in tasks if t.hi <= t.lo), None)
        self.tasks = sorted(tasks, key=lambda t: t.lo)
        self._los = [t.lo for t in self.tasks]

    # -- lookups -------------------------------------------------------------
    def covering(self, h: int) -> Optional[RangeTask]:
        idx = bisect.bisect_right(self._los, h) - 1
        if idx >= 0:
            t = self.tasks[idx]
            if t.contains(h):
                return t
        if self._wrapped is not None and self._wrapped.contains(h):
            return self._wrapped
        return None

    def preference(self, h: int) -> Tuple[int, ...]:
        """The replica set currently serving hash ``h``, primary first.
        Inside a migrating range the old set stays authoritative through
        CUTOVER (its copy is frozen by the fence); DONE flips to the new."""
        t = self.covering(h)
        if t is None:
            return self._new_sets[self.new_ring.owner_of_hash(h)]
        return t.dst if t.state >= RangeState.DONE else t.src

    def primary_at(self, h: int, epoch: int) -> int:
        """The primary shard for ``h`` as of routing epoch ``epoch`` --
        the frozen-view resolver scan dedup snapshots (a range counts as
        flipped only if its cutover bumped the epoch at or before the
        snapshot)."""
        t = self.covering(h)
        if t is None:
            return self.new_ring.owner_of_hash(h)
        if t.done_epoch is not None and t.done_epoch <= epoch:
            return t.dst[0]
        return t.src[0]

    def read_fallback(self, h: int) -> Tuple[int, ...]:
        """Shards still holding the pre-cutover copy of ``h``'s range --
        the dual-read forwarding window.  Non-empty only between a range's
        DONE flip and its cleanup (bounded by :data:`FORWARD_WINDOW`)."""
        t = self.covering(h)
        if t is None or t.cleaned or t.state < RangeState.DONE:
            return ()
        if t.done_at is not None and \
                self.sim.now - t.done_at > FORWARD_WINDOW:
            return ()
        return t.src

    # -- the write protocol --------------------------------------------------
    def fence_of(self, h: int) -> Optional[Event]:
        """The fence event a new write on ``h`` must wait out, or None.
        Non-None exactly while the covering range is in CUTOVER."""
        t = self.covering(h)
        if t is not None and t.state is RangeState.CUTOVER:
            return t.fence
        return None

    def write_begin(self, h: int) -> Optional[RangeTask]:
        """Count one write against the covering task (pre-flip only); the
        returned token must be passed to :meth:`write_end`."""
        t = self.covering(h)
        if t is None or t.state >= RangeState.DONE:
            return None
        t.inflight += 1
        return t

    def adopt(self, writes) -> None:
        """Count writes already in flight when this plan takes over the
        routing: every ``(hashes, tokens)`` entry whose token is None (no
        live range counted it) is counted against the range covering its
        hash, in place, so it is drained at cutover and dirty-marked when
        it settles."""
        for hashes, tokens in writes:
            for i, h in enumerate(hashes):
                if tokens[i] is None:
                    tokens[i] = self.write_begin(h)

    def write_end(self, task: Optional[RangeTask], key: bytes) -> None:
        """Settle one write begun with :meth:`write_begin` (see
        :meth:`RangeTask.settle_write`)."""
        if task is not None:
            task.settle_write(key)

    # -- progress ------------------------------------------------------------
    def progress(self) -> Dict[str, float]:
        """Per-state range counts + volume, probe-shaped (sampled every
        tick into the JSONL stream as ``hatkv.migration.<key>``)."""
        by = {s: 0 for s in RangeState}
        for t in self.tasks:
            by[t.state] += 1
        total = len(self.tasks)
        done = by[RangeState.DONE]
        return {
            "ranges_total": float(total),
            "ranges_pending": float(by[RangeState.PENDING]),
            "ranges_migrating": float(by[RangeState.MIGRATING]),
            "ranges_cutover": float(by[RangeState.CUTOVER]),
            "ranges_done": float(done),
            "pct_done": 100.0 * done / total if total else 100.0,
            "keys_moved": float(sum(t.keys_moved for t in self.tasks)),
            "bytes_moved": float(sum(t.bytes_moved for t in self.tasks)),
            "inflight_writes": float(sum(t.inflight for t in self.tasks)),
        }

    @property
    def complete(self) -> bool:
        return all(t.state >= RangeState.DONE for t in self.tasks)


# -- server-side write fencing ------------------------------------------------

class RangeHandedOffError(SimulationError):
    """A write reached a shard for a range it already handed off.  The
    router-side gate plus the cutover's in-flight drain make this
    unreachable in correct operation, so it is a loud protocol error,
    not a retryable condition."""


class HandoffGuard:
    """Installed on a server's handler during (and after) a resize: the
    old primary refuses writes for ranges whose cutover completed, so a
    Put is never acknowledged by two primaries -- even a late or buggy
    router cannot double-apply across the fence."""

    def __init__(self, plan: MigrationPlan, shard: int):
        self.plan = plan
        self.shard = shard

    def check(self, *keys: bytes) -> None:
        for key in keys:
            t = self.plan.covering(hash_key(key))
            if t is not None and t.state >= RangeState.DONE \
                    and self.shard not in t.dst:
                raise RangeHandedOffError(
                    f"shard {self.shard} refused write for {key!r}: range "
                    f"[{t.lo:#x}, {t.hi:#x}) handed off to {t.dst}")


# -- load-aware triggering ----------------------------------------------------

class ResizeTrigger:
    """Fires a resize off the live per-shard gauges.

    Attached to a :class:`~repro.obs.timeseries.MetricsSampler`, it
    evaluates every tick: when mean keys per shard crosses
    ``keys_per_shard``, it calls ``fire(target)`` exactly once.  ``phase``
    restricts evaluation to one harness phase (e.g. only trigger
    mid-MEASUREMENT); by default ``fire`` starts ``cluster.resize(target)``
    as a detached process.
    """

    def __init__(self, cluster, target_shards: int, *,
                 keys_per_shard: float,
                 phase: Optional[str] = None,
                 fire: Optional[Callable[[int], object]] = None):
        self.cluster = cluster
        self.target_shards = target_shards
        self.keys_per_shard = keys_per_shard
        self.phase = phase
        self.fired = False
        self.fired_at: Optional[float] = None
        self._fire = fire if fire is not None else \
            (lambda n: cluster.start_resize(n))

    def attach(self, sampler) -> "ResizeTrigger":
        sampler.on_sample.append(self._on_sample)
        return self

    def _on_sample(self, t: float, metrics: Dict[str, float],
                   tags: Dict[str, object]) -> None:
        if self.fired or self.cluster.migration is not None:
            return
        if self.cluster.n_shards >= self.target_shards:
            return
        if self.phase is not None and tags.get("phase") != self.phase:
            return
        n = self.cluster.n_shards
        keys = [metrics.get(f"hatkv.keys.shard{i}") for i in range(n)]
        if all(k is not None for k in keys) and \
                sum(keys) / n >= self.keys_per_shard:    # type: ignore
            self.fired = True
            self.fired_at = t
            self._fire(self.target_shards)
