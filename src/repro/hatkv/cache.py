"""Client-side hot-key cache: the ``cacheable`` hint's client half.

Zipfian traffic concentrates on a tiny hot set, yet every Get pays a full
RPC.  A read function marked ``cacheable(ttl)`` lets the server grant
per-key leases on its replies (see :class:`repro.hatkv.server.LeaseTable`
for the server half and the safety argument); the client may then serve
the key locally until the lease expires or a newer version is observed.
:class:`HotKeyCache` holds those leased entries -- bounded and
LRU-evicted -- for :class:`repro.hatkv.sharding.ShardRouter`.

Metrics (shared registry, like the ``hatkv.<op>`` counters):

* ``hatkv.cache.hits`` / ``hatkv.cache.misses`` -- lookup outcomes;
* ``hatkv.cache.invalidations`` -- entries dropped by writes, observed
  newer versions, failover, or migration cutover;
* ``hatkv.cache.lease_expiries`` -- entries that aged out on the sim
  clock before being served.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.sim.units import us

__all__ = ["CacheEntry", "HotKeyCache", "cache_hit_result", "trace_cache_hit"]

#: simulated client CPU per served hit (hash probe + value copy); also
#: keeps closed-loop clients from spinning in zero simulated time.
HIT_COST = 0.15 * us


@dataclass
class CacheEntry:
    found: bool
    value: bytes
    version: int
    expiry: float               # absolute sim time the lease runs out


class HotKeyCache:
    """Bounded per-client cache of leased Get replies.

    ``lookup`` serves unexpired entries (LRU order maintained);
    ``admit`` stores a reply iff the server granted a lease; every write
    or suspicious read path calls ``invalidate`` -- correctness never
    depends on eviction.
    """

    def __init__(self, sim, ttl: float, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.ttl = ttl
        self.capacity = capacity
        self._entries: "OrderedDict[bytes, CacheEntry]" = OrderedDict()
        reg = obs.current()
        if reg is not None:
            self._m_hits = reg.counter("hatkv.cache.hits")
            self._m_misses = reg.counter("hatkv.cache.misses")
            self._m_inval = reg.counter("hatkv.cache.invalidations")
            self._m_expiries = reg.counter("hatkv.cache.lease_expiries")
        else:
            self._m_hits = self._m_misses = None
            self._m_inval = self._m_expiries = None

    def __len__(self) -> int:
        return len(self._entries)

    # -- the read path -------------------------------------------------------
    def lookup(self, key: bytes) -> Optional[CacheEntry]:
        """The unexpired entry for ``key``, or None (counted as a miss)."""
        entry = self._entries.get(key)
        if entry is not None and entry.expiry <= self.sim.now:
            del self._entries[key]
            if self._m_expiries is not None:
                self._m_expiries.inc()
            entry = None
        if entry is None:
            if self._m_misses is not None:
                self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        if self._m_hits is not None:
            self._m_hits.inc()
        return entry

    def admit(self, key: bytes, result,
              issued: Optional[float] = None) -> None:
        """Absorb one Get reply: adopt its lease, invalidate on newer
        versions.  Replies without a lease grant (lease 0 / None -- a
        writer was in flight, or the service is not cacheable) only
        invalidate stale state and are never stored.

        ``issued`` is when the Get *request* was posted.  The lease is
        counted from there, not from reply arrival: the server's write
        barrier waits until grant-time + lease, and the request was
        posted at or before the grant, so issue-relative expiry can only
        undershoot the server's horizon.  Reply-relative expiry would
        overshoot it by the response flight time -- a window where a hit
        could serve a value an already-acknowledged Put replaced."""
        version = getattr(result, "version", None)
        lease = getattr(result, "lease", None)
        if version is None:
            return
        cached = self._entries.get(key)
        if cached is not None and cached.version < version:
            self.invalidate(key)
            cached = None
        if not lease:
            return
        if cached is not None and cached.version >= version:
            return
        expiry = (self.sim.now if issued is None else issued) \
            + min(lease, self.ttl)
        if expiry <= self.sim.now:
            return                      # already stale-by-flight: useless
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = CacheEntry(
            found=result.found, value=result.value, version=version,
            expiry=expiry)

    # -- invalidation --------------------------------------------------------
    def invalidate(self, key: bytes) -> None:
        if self._entries.pop(key, None) is not None \
                and self._m_inval is not None:
            self._m_inval.inc()

    def invalidate_match(self, pred) -> int:
        """Drop every entry whose key satisfies ``pred`` and return the
        count.  The scoped topology-change invalidation: one migrated
        range taints only the keys it owns, so the rest of the hot set
        keeps serving."""
        doomed = [k for k in self._entries if pred(k)]
        for k in doomed:
            del self._entries[k]
        if doomed and self._m_inval is not None:
            self._m_inval.inc(len(doomed))
        return len(doomed)

    def clear(self) -> None:
        """Drop everything (router teardown: provenance of every entry is
        suspect, so none may be served)."""
        n = len(self._entries)
        self._entries.clear()
        if n and self._m_inval is not None:
            self._m_inval.inc(n)


def cache_hit_result(result_cls, entry: CacheEntry):
    """A GetResult served from cache (lease 0: not re-cacheable)."""
    return result_cls(found=entry.found, value=entry.value,
                      version=entry.version, lease=0.0)


def trace_cache_hit(engine, fn_name: str, entry: CacheEntry) -> None:
    """Mirror a cache-served call into the distributed trace: the same
    ``hint_select`` stage the engine emits, with a cache rationale, so
    stage attribution can separate served-local from on-the-wire calls."""
    trc = engine._trc
    if trc is None:
        return
    sim = engine.node.sim
    act = trc.start_call(
        fn_name, engine.node.name, lambda: sim.now,
        attrs={"cache": "hit", **engine.trace_attrs})
    act.stage("hint_select", sim.now, sim.now, channel=-1,
              rationale="client hot-key cache hit (leased)", cache="hit")
    act.finish(sim.now, status="ok", resp_bytes=len(entry.value))
