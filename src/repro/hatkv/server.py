"""HatKV server: generated KVService over HatRPC with an LMDB backend."""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.core.engine import ServicePlan
from repro.core.hints import cacheable_hint, resolve_hints
from repro.core.runtime import HatRpcServer
from repro.hatkv.backend import LmdbBackend
from repro.sim.cluster import Node

__all__ = ["HatKVServer", "KVHandler", "LeaseTable"]

SERVICE = "KVService"
BASE_SID = 6000


class _PlainGetResult:
    """Stand-in for the generated GetResult when no gen module is wired
    (unit tests poking the handler directly)."""

    def __init__(self, found: bool = False, value: bytes = b"",
                 version=None, lease=None):
        self.found = found
        self.value = value
        self.version = version
        self.lease = lease


#: Write-rate suppression window, as a multiple of the lease ttl (see
#: :class:`LeaseTable`).
LEASE_SUPPRESS_FACTOR = 2.0

#: Leases at or below this ttl skip write-rate suppression entirely.  A
#: writer's stall is bounded by one lease epoch, so with short leases the
#: stall is cheap -- while suppression would mute the hottest keys, which
#: are exactly where a short-lease cache earns its keep.  Long leases
#: invert the trade: one stalled writer waits out most of a (long) epoch
#: and write-hot keys convoy, so suppression kicks in.
LEASE_SUPPRESS_MIN_TTL = 100e-6


class LeaseTable:
    """Server half of the ``cacheable`` hint's version/lease protocol.

    Invariant: while any granted lease on a key is unexpired, the key's
    value cannot change.  Writers register their intent first (which
    blocks new grants on the key), then wait out the outstanding lease
    horizon before applying, so a client serving a leased entry can never
    return a value older than the last *acknowledged* write.  Get grants
    a lease only when no writer is in flight AND the key's version did
    not move during its backend read.

    Grants on long leases (past :data:`LEASE_SUPPRESS_MIN_TTL`) are also
    *write-rate suppressed*: a key written within the last
    ``LEASE_SUPPRESS_FACTOR * ttl`` is refused a lease.  A write-hot key
    would otherwise convoy -- each Put waits out a lease horizon that
    concurrent Gets keep re-extending the moment the previous writer
    drains, so writers queue faster than barriers complete.  Suppression
    keeps such keys permanently lease-free (their writers sail through an
    already-expired horizon) while read-mostly keys, whose writes are
    rarer than the window, stay cacheable.
    """

    def __init__(self, sim, ttl: float):
        self.sim = sim
        self.ttl = ttl
        self.suppress = LEASE_SUPPRESS_FACTOR * ttl \
            if ttl > LEASE_SUPPRESS_MIN_TTL else 0.0
        self.versions = {}        # key -> write version (monotonic)
        self._expiry = {}         # key -> latest granted lease expiry
        self._writers = {}        # key -> in-flight writer count
        self._last_write = {}     # key -> sim time of latest version bump
        reg = obs.current()
        self._m_grants = reg.counter("hatkv.lease.grants") if reg else None
        self._m_stalls = reg.counter("hatkv.lease.write_stalls") if reg \
            else None
        self._m_suppressed = reg.counter("hatkv.lease.suppressed") if reg \
            else None

    def version(self, key) -> int:
        return self.versions.get(key, 0)

    def grant(self, key, v0: int) -> float:
        """A ``ttl`` lease, or 0.0 when the key is not safely cacheable
        right now (writer in flight, version moved past ``v0``, or the
        key was written within the suppression window)."""
        if self._writers.get(key) or self.versions.get(key, 0) != v0:
            return 0.0
        last = self._last_write.get(key)
        if last is not None and self.sim.now - last < self.suppress:
            if self._m_suppressed is not None:
                self._m_suppressed.inc()
            return 0.0
        # Epoch-capped: every grant inside one lease window shares the
        # window's expiry instead of extending it, so a writer's barrier
        # is bounded by one ttl from the epoch's *first* grant -- without
        # the cap, back-to-back reads would push the horizon out forever.
        exp = self._expiry.get(key, 0.0)
        if exp <= self.sim.now:
            exp = self.sim.now + self.ttl
            self._expiry[key] = exp
        if self._m_grants is not None:
            self._m_grants.inc()
        return exp - self.sim.now

    def begin_write(self, *keys) -> None:
        for k in keys:
            self._writers[k] = self._writers.get(k, 0) + 1

    def end_write(self, *keys) -> None:
        for k in keys:
            n = self._writers.get(k, 0) - 1
            if n <= 0:
                self._writers.pop(k, None)
            else:
                self._writers[k] = n

    def write_barrier(self, *keys):
        """Coroutine: wait until every outstanding lease on ``keys`` has
        expired.  The caller must hold ``begin_write`` on the keys so no
        new lease extends the horizon while waiting."""
        horizon = max((self._expiry.get(k, 0.0) for k in keys), default=0.0)
        if horizon > self.sim.now:
            if self._m_stalls is not None:
                self._m_stalls.inc()
            yield self.sim.timeout(horizon - self.sim.now)
        for k in keys:
            if self._expiry.get(k, 0.0) <= self.sim.now:
                self._expiry.pop(k, None)

    def bump(self, *keys) -> None:
        for k in keys:
            self.versions[k] = self.versions.get(k, 0) + 1
            self._last_write[k] = self.sim.now

    def adopt(self, key, version: int) -> None:
        """Import a version floor from another shard's table (migration
        handoff).  Client-visible versions must stay monotonic per key
        across a range move, so the new owner adopts the old owner's
        version *before* the copied value lands -- its own bumps then
        continue from there.  Never lowers an existing version."""
        if version > self.versions.get(key, 0):
            self.versions[key] = version


class KVHandler:
    """Generated-Iface implementation over the backend (all coroutines).

    ``result_cls`` is the generated ``GetResult`` struct; Get replies carry
    an explicit ``found`` flag so a missing key is never conflated with a
    stored-but-empty value.  ``shard`` (set by :mod:`repro.hatkv.sharding`)
    adds per-shard ``hatkv.shard<N>.*`` counters next to the global ones.
    """

    def __init__(self, backend: LmdbBackend, result_cls=None,
                 shard: Optional[int] = None,
                 leases: Optional[LeaseTable] = None):
        self.backend = backend
        self.result_cls = result_cls or _PlainGetResult
        self.shard = shard
        self.leases = leases
        #: migration write fence (a :class:`repro.hatkv.migration.HandoffGuard`
        #: installed by the cluster's resize driver): once a range's cutover
        #: completes, the old owner refuses writes for it.
        self.handoff = None
        # Per-op instruments, captured once (None = metrics disabled).
        reg = obs.current()
        if reg is not None:
            ops = ("get", "put", "delete", "multi_get", "multi_put", "scan")
            self._m_ops = {op: reg.counter(f"hatkv.{op}") for op in ops}
            if shard is not None:
                self._m_shard = {op: reg.counter(f"hatkv.shard{shard}.{op}")
                                 for op in ops}
            else:
                self._m_shard = None
        else:
            self._m_ops = None
            self._m_shard = None

    def _count(self, op: str) -> None:
        if self._m_ops is not None:
            self._m_ops[op].inc()
            if self._m_shard is not None:
                self._m_shard[op].inc()

    def _annotate(self, op: str, **attrs) -> None:
        """Stamp the KV op onto the open "handler" trace stage (the Thrift
        processor holds it open across the handler coroutine)."""
        ap = self.backend.node.sim.active_process
        ctx = ap.trace_ctx if ap is not None else None
        if ctx is not None:
            ctx.annotate(op=op, **attrs)

    def Get(self, key):
        self._count("get")
        self._annotate("get", key_bytes=len(key))
        lt = self.leases
        if lt is None:
            value = yield from self.backend.get(key)
            return self.result_cls(found=value is not None,
                                   value=value if value is not None else b"")
        # Capture the version BEFORE the backend read: a write landing
        # mid-read moves it, and grant() then refuses the lease (the value
        # we are about to return may already be stale).
        v0 = lt.version(key)
        value = yield from self.backend.get(key)
        lease = lt.grant(key, v0)
        return self.result_cls(found=value is not None,
                               value=value if value is not None else b"",
                               version=lt.version(key), lease=lease)

    def _write(self, keys, apply, *args):
        """Coroutine: the write discipline, once for every write op --
        handoff check, then (with a lease table) register the writers,
        wait out the outstanding leases, apply, bump, deregister.
        ``apply(*args)`` is only *called* after the barrier, so the backend
        trace stage does not open while the write is parked on a lease.

        Handler methods must ``yield from`` this, not return it: the
        Thrift processor dispatches on ``inspect.isgeneratorfunction`` and
        would never run a generator a plain method handed back."""
        if self.handoff is not None:
            self.handoff.check(*keys)
        lt = self.leases
        if lt is None:
            yield from apply(*args)
            return
        lt.begin_write(*keys)
        try:
            yield from lt.write_barrier(*keys)
            yield from apply(*args)
            lt.bump(*keys)
        finally:
            lt.end_write(*keys)

    def Put(self, key, value):
        self._count("put")
        self._annotate("put", value_bytes=len(value))
        yield from self._write((key,), self.backend.put, key, value)

    def Delete(self, key):
        self._count("delete")
        self._annotate("delete", key_bytes=len(key))
        yield from self._write((key,), self.backend.delete, key)

    def MultiGet(self, keys):
        self._count("multi_get")
        self._annotate("multi_get", nkeys=len(keys))
        values = yield from self.backend.multi_get(keys)
        return [v if v is not None else b"" for v in values]

    def MultiPut(self, keys, values):
        self._count("multi_put")
        self._annotate("multi_put", nkeys=len(keys),
                       value_bytes=sum(len(v) for v in values))
        yield from self._write(keys, self.backend.multi_put, keys, values)

    def Scan(self, start_key, count):
        self._count("scan")
        self._annotate("scan", count=count)
        rows = yield from self.backend.scan(start_key, count)
        # flatten to [k1, v1, k2, v2, ...] (the IDL carries one list)
        out = []
        for k, v in rows:
            out.append(k)
            out.append(v)
        return out


class HatKVServer:
    """One HatKV node: LMDB backend + HatRPC service endpoints."""

    def __init__(self, node: Node, gen_module,
                 concurrency: Optional[int] = None,
                 plan: Optional[ServicePlan] = None,
                 base_service_id: int = BASE_SID,
                 tune_backend: bool = True,
                 pipeline: bool = False,
                 shard: Optional[int] = None,
                 admission=None,
                 srq: bool = False,
                 srq_slots: Optional[int] = None,
                 tunable: bool = False):
        self.node = node
        self.gen = gen_module
        self.shard = shard
        self.backend = LmdbBackend(node)
        # Backend co-design: tune LMDB from the service-level server hints
        # (Section 4.4 -- e.g. max readers from the concurrency hint).
        # Comparator systems (repro.emul) disable this: they share the
        # stock backend, as the paper's apples-to-apples setup requires.
        if tune_backend:
            service_map = gen_module.SERVICE_HINTS[SERVICE]["service"]
            hints = resolve_hints(service_map, None, "server")
            if concurrency is not None:
                from dataclasses import replace
                hints = replace(hints, concurrency=concurrency)
            self.backend.apply_hints(hints)
        # A cacheable hint on Get (resolved server-side) stands up the
        # lease table: Get replies then carry version + lease and writers
        # wait out outstanding leases before applying.
        hint_map = gen_module.SERVICE_HINTS.get(SERVICE, {})
        cc = cacheable_hint(resolve_hints(
            hint_map.get("service", {}),
            hint_map.get("functions", {}).get("Get"), "server"))
        self.leases = LeaseTable(node.sim, cc.ttl) if cc is not None else None
        self.handler = KVHandler(self.backend, result_cls=gen_module.GetResult,
                                 shard=shard, leases=self.leases)
        # pipeline=True provisions windowed channels; connect the clients
        # with pipeline=True too -- both peers must share the plan.
        # admission/srq: the overload-protection stack (see HatRpcServer) --
        # priority-tiered admission ahead of LMDB work, and the SRQ receive
        # path so client count can outgrow the node's core count.
        self.rpc = HatRpcServer(node, gen_module, SERVICE, self.handler,
                                base_service_id=base_service_id,
                                concurrency=concurrency, plan=plan,
                                pipeline=pipeline, admission=admission,
                                srq=srq, srq_slots=srq_slots,
                                tunable=tunable)

    def install_handoff(self, guard) -> None:
        """Arm (or replace) the migration write fence on this server's
        handler.  Each resize installs guards built from its own plan; the
        latest plan is the routing truth, so replacement is correct."""
        self.handler.handoff = guard

    def start(self) -> "HatKVServer":
        self.rpc.start()
        return self

    def stop(self) -> None:
        self.rpc.stop()

    def load(self, items) -> None:
        """Bulk-load (key, value) pairs straight into LMDB (no RPC) --
        the YCSB load phase, which the paper does not time."""
        with self.backend.env.begin(write=True) as txn:
            for key, value in items:
                txn.put(key, value)

    @property
    def requests(self) -> int:
        return self.rpc.requests
