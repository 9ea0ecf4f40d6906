"""Sharded HatKV: consistent-hash routing over N HatKV servers.

The cluster side (:class:`ShardedKVCluster`) launches one
:class:`~repro.hatkv.server.HatKVServer` per shard on its own simulated
node, each with its own LMDB backend.  The client side
(:class:`ShardRouter`) opens one HatRPC channel set per shard -- each with
its own hint-resolved ServicePlan, pipeline window, breakers, and retry
state -- and maps keys onto shards with a consistent-hash ring
(:class:`HashRing`, virtual nodes for balance).

Replication is successor-based: a key's primary shard is its ring owner,
and its replicas are the next ``replicas - 1`` shards in shard order.
Every key on primary ``s`` therefore has the same replica set, which lets
the router fail a shard's whole ``MultiGet`` or ``Scan`` sub-batch over to
one replica.  Reads fail over to replicas; writes fan to every replica and
surface typed transport errors instead of blindly retrying (a re-sent
write could double-apply).

The ring is elastic: :meth:`ShardedKVCluster.resize` grows or shrinks the
shard count *live*, streaming only the remapped vnode arcs to their new
owners while traffic keeps flowing (see :mod:`repro.hatkv.migration` for
the range states, the cutover fence, and the dual-read forwarding
window).  One :class:`~repro.hatkv.migration.MigrationPlan` is always the
routing truth (``cluster.routing``): while a resize runs the in-flight
plan -- not either ring alone -- else the static ring as a plan with zero
ranges.  Routers resolve preference, write gates, and post-cutover read
fallbacks against it, and each range flip bumps the ``routing_epoch`` so
caches and scans can tell which side of a cutover an answer came from.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.thrift.errors import TRejectedException, TTransportException

from repro import obs
from repro.core.runtime import gather
from repro.hatkv.cache import (HIT_COST, HotKeyCache, cache_hit_result,
                               trace_cache_hit)
from repro.hatkv.client import cache_for, connect_hatkv
from repro.hatkv.idl import load_hatkv_module
from repro.hatkv.migration import (FORWARD_WINDOW, HandoffGuard,
                                   MigrationPlan, RangeState, VnodeRange,
                                   coalesce_ranges, hash_key, ring_segments)
from repro.hatkv.server import BASE_SID, HatKVServer
from repro.sim.core import Event

__all__ = ["HashRing", "RouterInUseError", "RoutingView", "ShardRouter",
           "ShardedKVCluster"]

#: ring placement hash (md5-derived; see :func:`repro.hatkv.migration.hash_key`)
_hash64 = hash_key


class HashRing:
    """Consistent-hash ring: ``vnodes`` points per shard for balance.

    ``shard_of(key)`` is the first point clockwise from the key's hash.
    Adding or removing one shard only remaps the keys on that shard's
    arcs, which is the property that makes resharding incremental.
    """

    def __init__(self, n_shards: int, vnodes: int = 256, seed: int = 0):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.vnodes = vnodes
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for v in range(vnodes):
                points.append((_hash64(f"{seed}:{shard}:{v}".encode()),
                               shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def owner_of_hash(self, h: int) -> int:
        """The shard owning ring position ``h`` (first point clockwise)."""
        idx = bisect.bisect_right(self._hashes, h)
        if idx == len(self._hashes):
            idx = 0  # wrap past the highest point
        return self._shards[idx]

    def shard_of(self, key: bytes) -> int:
        return self.owner_of_hash(_hash64(key))

    def resize(self, n_shards: int) -> "HashRing":
        """The ring this one becomes at ``n_shards`` shards.

        Same seed and vnode count, so every surviving shard keeps its
        exact points and only the arcs claimed by added (or released by
        removed) vnodes remap -- ``|Δvnodes| / |vnodes|`` of the key
        space, the minimal-movement property consistent hashing exists
        for.  :meth:`moved_ranges` names those arcs.
        """
        return HashRing(n_shards, vnodes=self.vnodes, seed=self.seed)

    def moved_ranges(self, new_ring: "HashRing") -> List[VnodeRange]:
        """The minimal remapped arc set between this ring and
        ``new_ring`` (coalesced; primary ownership only -- replica-set
        deltas are :class:`~repro.hatkv.migration.MigrationPlan`'s
        concern)."""
        return coalesce_ranges(
            [VnodeRange(lo, hi, a, b)
             for lo, hi, a, b in ring_segments(self, new_ring) if a != b])

    def distribution(self, keys) -> List[int]:
        """Keys-per-shard histogram (the router's balance gauge feed)."""
        counts = [0] * self.n_shards
        for key in keys:
            counts[self.shard_of(key)] += 1
        return counts


class RoutingView:
    """A frozen snapshot of the cluster's routing truth.

    ``Scan``'s primary-preference dedup must rank every merged row
    against ONE consistent topology: resolving primaries live would let a
    range flip *between two rows of the same merge* hand the preference
    to a stale replica copy.  The view pins the routing epoch at snapshot
    time -- a migrated range counts as flipped only if its cutover
    happened at or before that epoch -- so the whole merge sees the ring
    as of one instant.
    """

    def __init__(self, cluster: "ShardedKVCluster"):
        self.epoch = cluster.routing_epoch
        self._plan = cluster.routing

    def primary(self, key: bytes) -> int:
        return self._plan.primary_at(_hash64(key), self.epoch)


class ShardedKVCluster:
    """N HatKV servers on distinct sim nodes behind one consistent ring."""

    def __init__(self, testbed, n_shards: int,
                 gen_module=None, variant: str = "function",
                 replicas: int = 1, vnodes: int = 256,
                 server_nodes: Optional[Sequence] = None,
                 concurrency: Optional[int] = None,
                 pipeline: bool = True,
                 ring_seed: int = 0,
                 reserve_nodes: Optional[Sequence] = None,
                 forward_window: Optional[float] = None,
                 **server_kw):
        if not 1 <= replicas <= n_shards:
            raise ValueError("need 1 <= replicas <= n_shards")
        self.testbed = testbed
        self.n_shards = n_shards
        self.replicas = replicas
        self.pipeline = pipeline
        self.concurrency = concurrency
        self.gen = gen_module or load_hatkv_module(variant)
        self.forward_window = FORWARD_WINDOW if forward_window is None \
            else forward_window
        nodes = (list(server_nodes) if server_nodes is not None
                 else testbed.nodes[:n_shards])
        if len(nodes) != n_shards:
            raise ValueError(f"need {n_shards} server nodes, got {len(nodes)}")
        self._server_kw = dict(server_kw)
        self.servers = [self._launch(node, i) for i, node in enumerate(nodes)]
        self.ring = HashRing(n_shards, vnodes=vnodes, seed=ring_seed)
        #: nodes reserved for shards a future :meth:`resize` adds; they
        #: count as server nodes for placement (harnesses must not put
        #: clients there) even while idle.
        self._spare_nodes = list(reserve_nodes or [])
        #: the in-flight :class:`MigrationPlan` (None outside a resize and
        #: after its forwarding window closes)
        self.migration: Optional[MigrationPlan] = None
        self._last_plan: Optional[MigrationPlan] = None
        #: bumped at every range cutover; snapshot it to tell whether an
        #: answer crossed a flip (see :class:`RoutingView` and the
        #: router's cache admission)
        self.routing_epoch = 0
        #: live routers (connect registers, close deregisters): the resize
        #: driver attaches new shards and pushes cutover invalidations here
        self._routers: List["ShardRouter"] = []
        #: every router write in flight, as ``(hashes, tokens)`` keyed by
        #: ``id(tokens)``: a resize's plan adopts the ones no range counts
        #: (each once; the order it walks them in changes nothing)
        self._writes: Dict[int, Tuple[list, list]] = {}
        #: migration-event hooks ``fn(kind, **attrs)`` (benchmark
        #: annotation, tests)
        self.on_migration: list = []
        self._migr_stubs: Dict[Tuple[int, int], object] = {}
        reg = obs.current()
        if reg is not None:
            # Live key balance as a pull probe: unlike the load-time
            # ``hatkv.router.keys.shard<i>`` gauges this is re-read at
            # every sampler tick, so inserts show up in the stream as
            # they land rather than at the next bulk load.
            reg.probe("hatkv.keys", self._key_balance)
            # Per-range migration progress, same pull-probe shape: the
            # stream shows ranges walking MIGRATING -> CUTOVER -> DONE.
            reg.probe("hatkv.migration", self._migration_progress)
            self._m_migr_events = reg.counter("hatkv.migration.events")
        else:
            self._m_migr_events = None

    def _key_balance(self) -> dict:
        return {f"shard{i}": float(s.backend.env.stat().entries)
                for i, s in enumerate(self.servers)}

    def _migration_progress(self) -> dict:
        plan = self.migration or self._last_plan
        return plan.progress() if plan is not None else {}

    # -- topology ------------------------------------------------------------
    @property
    def sim(self):
        return self.servers[0].node.sim

    @property
    def nodes(self) -> list:
        """Every node the cluster owns -- serving shards AND reserved
        spares, so placement logic keeps clients off future shard homes."""
        return [s.node for s in self.servers] + list(self._spare_nodes)

    def _launch(self, node, shard: int) -> HatKVServer:
        """Shard ``shard``'s server on ``node`` (not yet started)."""
        return HatKVServer(node, self.gen, shard=shard,
                           concurrency=self.concurrency,
                           base_service_id=BASE_SID,
                           pipeline=self.pipeline, **self._server_kw)

    @property
    def ring(self) -> HashRing:
        """The ring in force outside a resize (the resize driver assigns
        the new one once every range has flipped)."""
        return self._static.new_ring

    @ring.setter
    def ring(self, ring: HashRing) -> None:
        # a static ring is a plan with zero ranges, built once per ring
        self._static = MigrationPlan(self.sim, ring, ring,
                                     replicas=self.replicas)

    @property
    def routing(self) -> MigrationPlan:
        """The one routing truth every key lookup resolves against: the
        in-flight plan during a resize, else the static ring's."""
        return self.migration or self._static

    def primary(self, key: bytes) -> int:
        return self.routing.preference(_hash64(key))[0]

    def replica_shards(self, primary: int) -> Tuple[int, ...]:
        """The shards holding a key whose ring owner is ``primary``:
        the owner plus its ``replicas - 1`` successors in shard order."""
        return tuple((primary + j) % self.n_shards
                     for j in range(self.replicas))

    def preference(self, key: bytes) -> Tuple[int, ...]:
        """The replica set currently serving ``key``.  Under an active
        migration the covering range's plan entry wins: its old set stays
        authoritative through CUTOVER, its new set from the flip on.
        Arcs the resize does not touch have identical sets under both
        rings, so the plan answers them from its new ring throughout."""
        return self.routing.preference(_hash64(key))

    def read_fallback(self, key: bytes) -> Tuple[int, ...]:
        """Shards still holding ``key``'s pre-cutover copy (the dual-read
        forwarding window); () outside a migration."""
        return self.routing.read_fallback(_hash64(key))

    def routing_view(self) -> RoutingView:
        """A frozen resolver for epoch-consistent dedup (see
        :class:`RoutingView`)."""
        return RoutingView(self)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ShardedKVCluster":
        for s in self.servers:
            s.start()
        return self

    def stop(self) -> None:
        for stub in self._migr_stubs.values():
            stub._hatrpc.close()
        self._migr_stubs.clear()
        for s in self.servers:
            s.stop()

    def load(self, items) -> None:
        """Bulk-load (key, value) pairs into every owning shard's LMDB
        (no RPC -- the untimed YCSB load phase), and publish the key
        distribution as per-shard gauges.  One write txn per shard: an
        item that raises aborts them all, so nothing is loaded."""
        counts = [0] * self.n_shards
        txns = []
        try:
            for s in self.servers:
                txns.append(s.backend.env.begin(write=True))
            for key, value in items:
                pref = self.preference(key)
                counts[pref[0]] += 1
                for shard in pref:
                    txns[shard].put(key, value)
        except BaseException:
            # all or nothing: a bad item leaves every shard as it was
            for txn in txns:
                txn.abort()
            raise
        for txn in txns:
            txn.commit()
        reg = obs.current()
        if reg is not None:
            for i, n in enumerate(counts):
                reg.gauge(f"hatkv.router.keys.shard{i}").set(n)

    def connect(self, node, deadline: Optional[float] = None,
                retry_policy=None, rng=None, tunable: bool = False,
                tuner=None, cache: bool = True,
                cache_capacity: int = 4096):
        """Coroutine: a :class:`ShardRouter` on ``node``, with one engine
        channel set per shard (per-shard plan, window, and breakers).

        ``tuner`` attaches one (shareable) HintTuner to every shard
        engine -- all shard plans are built from the same hint map, so
        their shapes match the tuner's bind invariant.  The cluster's
        servers must be built with ``tunable=True`` to serve the
        alternate channels.

        When the gen module's IDL marks Get ``cacheable`` (and ``cache``
        is left on), the router gets a per-client
        :class:`~repro.hatkv.cache.HotKeyCache` sitting above the shard
        fan-out; ``cache=False`` opts a client out (e.g. a cache-off
        baseline against the same cluster).  Passing a
        :class:`~repro.hatkv.cache.HotKeyCache` instance instead shares
        that cache with other routers -- the per-machine shape, where
        every client process on a node reads through (and invalidates)
        one cache.

        The router registers with the cluster: a later :meth:`resize`
        connects it to the new shards before any range flips, and pushes
        per-range cache invalidations at each cutover.
        """
        if isinstance(cache, HotKeyCache):
            kv_cache = cache
        else:
            kv_cache = cache_for(node, self.gen, cache_capacity) if cache \
                else None
        router = ShardRouter(self, node, cache=kv_cache, connect_kw=dict(
            deadline=deadline, retry_policy=retry_policy, rng=rng,
            tunable=tunable, tuner=tuner))
        yield from router.attach_shards(self.servers)
        self._routers.append(router)
        return router

    @property
    def requests(self) -> int:
        return sum(s.requests for s in self.servers)

    # -- elastic resize ------------------------------------------------------
    def start_resize(self, n_shards: int, **kw):
        """Kick off :meth:`resize` as a detached process (the load-aware
        trigger's entry point) and return the process handle."""
        return self.sim.process(self.resize(n_shards, **kw),
                                name=f"hatkv-resize-{n_shards}")

    def resize(self, n_shards: int, catchup_rounds: int = 2,
               batch: int = 64):
        """Coroutine: live ring resize to ``n_shards`` with key migration.

        Grow stands the new shards up on reserved nodes and attaches
        every live router to them; shrink retires the dropped shards
        after their data has moved and their forwarding window closed.
        Ranges migrate one at a time (copy -> catch-up -> fence ->
        fenced delta -> flip), so the write fence only ever covers one
        arc's keys and p99 disturbance stays bounded.  See
        :mod:`repro.hatkv.migration` for the protocol.
        """
        if self.migration is not None:
            raise RuntimeError("a resize is already in flight")
        if n_shards == self.n_shards:
            return
        old_n = self.n_shards
        old_ring = self.ring
        new_ring = old_ring.resize(n_shards)
        plan = MigrationPlan(self.sim, old_ring, new_ring,
                             replicas=self.replicas,
                             forward_window=self.forward_window)
        for i in range(old_n, n_shards):
            if not self._spare_nodes:
                raise RuntimeError(
                    "resize needs reserve_nodes for the added shards")
            self.servers.append(
                self._launch(self._spare_nodes.pop(0), i).start())
        # The plan takes over the routing and, in the same step, counts
        # the writes already in flight against the ranges they land in:
        # resolved by the outgoing routing, they land on a range's old set,
        # so the cutover must drain them and the copy must re-stream them.
        self.migration = plan
        self._last_plan = plan
        plan.adopt(self._writes.values())
        # Arm the write fence everywhere: from here on, a range that
        # completes its cutover is refused by its old owner.
        for srv in self.servers:
            srv.install_handoff(HandoffGuard(plan, srv.shard))
        # Every live router must reach the new shards before any range
        # can flip to them.
        for router in list(self._routers):
            yield from router.attach_shards(self.servers[old_n:])
        self._fire("resize_start", n_from=old_n, n_to=n_shards,
                   ranges=len(plan.tasks))
        buckets = self._bucket_keys(plan)
        for task in plan.tasks:
            yield from self._migrate_range(
                plan, task, buckets.get(id(task), []),
                batch=batch, catchup_rounds=catchup_rounds)
        # Every range flipped: the new ring is the whole routing truth.
        self.ring = new_ring
        self.n_shards = n_shards
        self._fire("resize_cutover_complete", epoch=self.routing_epoch)
        # Dual-read forwarding window: the old copies keep backstopping
        # post-cutover misses until it closes, then they are dropped.
        yield self.sim.timeout(plan.forward_window)
        dropped = self._cleanup(plan)
        self._fire("cleanup_done", keys_dropped=dropped)
        for stub in self._migr_stubs.values():
            stub._hatrpc.close()
        self._migr_stubs.clear()
        if n_shards < old_n:
            for router in list(self._routers):
                yield from router.detach_shards(old_n - n_shards)
            retired = self.servers[n_shards:]
            del self.servers[n_shards:]
            for srv in retired:
                srv.stop()
                self._spare_nodes.append(srv.node)
        self.migration = None
        self._fire("resize_done", n_shards=n_shards)

    def _fire(self, kind: str, **attrs) -> None:
        if self._m_migr_events is not None:
            self._m_migr_events.inc()
        for fn in list(self.on_migration):
            fn(kind, **attrs)

    def _bucket_keys(self, plan: MigrationPlan) -> Dict[int, List[bytes]]:
        """Existing keys grouped by the migrating range covering them.

        Each distinct source primary's backend is enumerated exactly once
        (keys only -- values are read with simulated cost when their
        batch streams).  Replica-held copies are skipped: the range's
        ``src[0]`` backend is the authoritative copy source.
        """
        buckets: Dict[int, List[bytes]] = {}
        for shard in sorted({t.src[0] for t in plan.tasks}):
            with self.servers[shard].backend.env.begin() as txn:
                rows = txn.cursor().scan()
            for k, _v in rows:
                t = plan.covering(_hash64(k))
                if t is not None and t.src[0] == shard:
                    buckets.setdefault(id(t), []).append(k)
        return buckets

    def _migrate_range(self, plan: MigrationPlan, task, keys,
                       batch: int = 64, catchup_rounds: int = 2):
        """Coroutine: walk one range through its migration states.

        The cutover block below is deliberately yield-free between
        setting ``CUTOVER`` and sampling ``task.inflight``: the
        cooperative sim makes the two atomic, so the in-flight count it
        drains on is exact and a write can never slip between the fence
        closing and the drain starting.
        """
        sim = self.sim
        task.keys_total = len(keys)
        task.seen.update(keys)
        task.state = RangeState.MIGRATING
        self._fire("range_migrating", lo=task.lo, hi=task.hi,
                   src=task.src, dst=task.dst, keys=len(keys))
        # Initial snapshot + unfenced catch-up rounds: writes keep landing
        # on the old owners and dirty-marking, each round shrinks the
        # delta the fenced pass below must ship.
        yield from self._copy_keys(task, keys, batch)
        for _ in range(catchup_rounds):
            if not task.dirty:
                break
            delta = sorted(task.dirty)
            task.dirty.clear()
            yield from self._copy_keys(task, delta, batch)
        # -- cutover: fence new writes, drain in-flight ones -----------------
        task.fence = Event(sim)
        task.state = RangeState.CUTOVER
        self._fire("range_cutover", lo=task.lo, hi=task.hi,
                   inflight=task.inflight)
        if task.inflight:
            task._drain = Event(sim)
            yield task._drain
        if task.dirty:
            delta = sorted(task.dirty)
            task.dirty.clear()
            yield from self._copy_keys(task, delta, batch)
        # -- flip: the range's routing truth moves to the new owners ---------
        self.routing_epoch += 1
        task.done_epoch = self.routing_epoch
        task.done_at = sim.now
        task.state = RangeState.DONE
        task.fence.succeed()   # parked writers re-resolve to the new owners
        for router in list(self._routers):
            router._on_range_done(task)
        self._fire("range_done", lo=task.lo, hi=task.hi,
                   epoch=self.routing_epoch, keys_moved=task.keys_moved)

    def _copy_keys(self, task, keys, batch: int):
        """Coroutine: stream ``keys`` of one range to its new holders.

        Reads are costed backend batches on the source primary; writes
        ride pipelined single-key Puts over server-to-server stubs --
        migration shares the RPC substrate (and its windows and hints)
        with client traffic instead of a magic side channel.  Keys that
        vanished since they were dirty-marked propagate as pipelined
        Deletes once the Puts settled, so a removal during the copy cannot
        resurrect at the new owner.  Version floors are adopted before
        each batch lands: client-visible versions stay monotonic across
        the handoff.
        """
        if not keys:
            return
        src = self.servers[task.src[0]]
        for i in range(0, len(keys), batch):
            chunk = list(keys[i:i + batch])
            values = yield from src.backend.multi_get(chunk)
            present = [(k, v) for k, v in zip(chunk, values)
                       if v is not None]
            absent = [k for k, v in zip(chunk, values) if v is None]
            for dst in task.copy_targets:
                dst_srv = self.servers[dst]
                if dst_srv.leases is not None and src.leases is not None:
                    for k in chunk:
                        dst_srv.leases.adopt(k, src.leases.version(k))
                stub = yield from self._migr_stub(task.src[0], dst)
                caller = stub._hatrpc.async_caller()
                for calls in ([("Put", k, v) for k, v in present],
                              [("Delete", k) for k in absent]):
                    if calls:
                        handles = []
                        for method, *args in calls:
                            handles.append(
                                (yield from caller.call_async(method, *args)))
                        yield from gather(handles)
            task.keys_moved += len(present)
            task.bytes_moved += sum(len(k) + len(v) for k, v in present)

    def _migr_stub(self, src: int, dst: int):
        """Coroutine: the (cached) server-to-server stub one copy stream
        rides; closed when the resize completes."""
        stub = self._migr_stubs.get((src, dst))
        if stub is None:
            stub = yield from connect_hatkv(
                self.servers[src].node, self.servers[dst].node, self.gen,
                concurrency=self.concurrency, base_service_id=BASE_SID,
                pipeline=self.pipeline)
            self._migr_stubs[(src, dst)] = stub
        return stub

    def _cleanup(self, plan: MigrationPlan) -> int:
        """Drop the handed-off copies once the forwarding window closes
        (direct backend deletes -- control plane, like :meth:`load`)."""
        dropped = 0
        for task in plan.tasks:
            for shard in task.drop_targets:
                backend = self.servers[shard].backend
                with backend.env.begin(write=True) as txn:
                    for k in sorted(task.seen):
                        if txn.delete(k):
                            dropped += 1
            task.cleaned = True
        return dropped


def _counter(name: str):
    """The registry's counter ``name``, or None with metrics off."""
    reg = obs.current()
    return reg.counter(name) if reg is not None else None


def _flat(reply) -> bytes:
    """A Get reply or cache entry as batch replies carry it (b"" = absent)."""
    return reply.value if reply.found else b""


class _Shard(NamedTuple):
    """One shard as a router sees it: two wire drivers over one engine."""
    stub: Any       # blocking driver: primary single-key legs, failover legs
    caller: Any     # pipelined driver: replica writes and batch legs
    engine: Any
    ops: Any        # hatkv.router.shard<i>.ops counter (None: metrics off)


class RouterInUseError(RuntimeError):
    """A stub call entered a :class:`ShardRouter` while another process's
    call was in flight on it: a router serves one process at a time."""


def _one_process(method):
    """A stub method of :class:`ShardRouter`, run as the router's one
    in-flight call (:meth:`ShardRouter._held`)."""
    def call(self, *args):
        return self._held(method(self, *args))
    call.__name__ = method.__name__
    call.__qualname__ = method.__qualname__
    call.__doc__ = method.__doc__
    return call


class ShardRouter:
    """Client-side shard fan-out with the stub's coroutine API.

    One generated stub (and HatRPC engine) per shard; every op routes by
    key through the cluster's routing plan.  Reads fail over along the
    key's preference list, in-flight pipelined reads included (their
    handle's transport error starts the same walk); writes fan to all
    replicas and surface transport errors typed, never blindly re-sent.

    During a resize the router is migration-aware: writes pass the
    cutover fence (:meth:`_write_intent`) so none straddles a flip,
    cache admission is epoch-tagged, post-cutover misses retry the
    range's previous holders for the forwarding window, and each range
    flip invalidates exactly that range's cached keys.

    Each decision has one site shared by all six stub methods (table
    in DESIGN.md section 10): ``_cached``, ``_primary_answered``,
    ``_failover``, ``_write_one`` / ``_write_batch``, ``_call`` / ``_issue``.

    A router, like a Thrift client, serves one process at a time: its
    shard stubs number their calls from one seqid counter each, so two
    processes interleaving calls on one router would take each other's
    replies.  A stub call that enters while another process's call is in
    flight raises :class:`RouterInUseError` at once.  Give every client
    process its own router.
    """

    def __init__(self, cluster: ShardedKVCluster, node, cache=None,
                 connect_kw: Optional[dict] = None):
        self.cluster = cluster
        self.node = node
        self.cache = cache
        self._connect_kw = dict(connect_kw or {})
        self._shards: List[_Shard] = []
        self._m_read_failovers = _counter("hatkv.router.read_failovers")
        self._m_forward = _counter("hatkv.router.forward_reads")
        self._closed = False
        #: the process whose stub call is in flight, None when idle
        self._holder = None

    # -- elastic topology ----------------------------------------------------
    def attach_shards(self, servers):
        """Coroutine: connect this router to ``servers`` (every shard at
        build time, later the ones a resize added) with the connect options
        it was built with.  The resize driver calls this before any range
        flips, so a flipped range's new owners are always reachable."""
        for server in servers:
            index = len(self._shards)
            stub = yield from connect_hatkv(
                self.node, server.node, self.cluster.gen,
                concurrency=self.cluster.concurrency,
                base_service_id=BASE_SID,
                pipeline=self.cluster.pipeline,
                trace_attrs={"shard": index}, **self._connect_kw)
            engine = stub._hatrpc.engine
            self._shards.append(_Shard(
                stub, stub._hatrpc.async_caller(), engine,
                _counter(f"hatkv.router.shard{index}.ops")))

    def detach_shards(self, count: int):
        """Coroutine: drain and drop the highest-numbered ``count`` shard
        channel sets (a shrink's retired shards).  Uses the engine's
        drain-and-close so pipelined tails settle instead of failing."""
        for _ in range(count):
            shard = self._shards.pop()
            yield from shard.engine.drain_close()
            shard.stub._hatrpc.close()

    def _on_range_done(self, task) -> None:
        """Cutover hook: drop cached entries for exactly the flipped
        range -- their provenance (the old owners) just stopped being
        authoritative.  Everything else keeps serving."""
        if self.cache is not None:
            self.cache.invalidate_match(lambda k: task.contains(_hash64(k)))

    def _held(self, call):
        """Coroutine: run the stub call ``call`` for the active process,
        or raise :class:`RouterInUseError` if another process's is in
        flight."""
        me = self.node.sim.active_process
        holder = self._holder
        if holder is not None and holder is not me:
            raise RouterInUseError(
                f"router on {self.node.name} is serving process "
                f"{holder.name!r}; give every client process its own router")
        self._holder = me
        try:
            return (yield from call)
        finally:
            self._holder = holder

    # -- the two wire drivers ------------------------------------------------
    # Every call leaves through one of these, so a shard's op counter ticks
    # when a call is issued to it -- never for a leg planned but not sent.
    def _call(self, shard: int, method: str, *args):
        """Coroutine: ``method`` on ``shard``'s blocking stub."""
        self._check_open(method)
        s = self._shards[shard]
        if s.ops is not None:
            s.ops.inc()
        return getattr(s.stub, method)(*args)

    def _issue(self, shard: int, method: str, *args):
        """Coroutine: post ``method`` on ``shard``'s pipelined caller;
        returns the handle."""
        self._check_open(method)
        s = self._shards[shard]
        if s.ops is not None:
            s.ops.inc()
        return s.caller.call_async(method, *args)

    def _check_open(self, method: str) -> None:
        """Both drivers raise ``NOT_OPEN`` after :meth:`close`: a failover
        walk racing close fails typed, like any dead leg."""
        if self._closed:
            raise TTransportException(TTransportException.NOT_OPEN,
                                      f"router closed before {method}")

    # -- the read decisions --------------------------------------------------
    def _cached(self, key, fn: str):
        """Coroutine: the cache-hit step -- ``key``'s unexpired entry,
        its hit cost charged and traced as a ``fn`` call, else None."""
        entry = self.cache.lookup(key) if self.cache is not None else None
        if entry is not None:
            yield self.node.compute(HIT_COST)
            trace_cache_hit(self._shards[self.cluster.primary(key)].engine,
                            fn, entry)
        return entry

    def _primary_answered(self, key, shard: int, result, issued, gen0):
        """Coroutine: what the primary's Get reply turns into.  A miss
        inside the key's forwarding window retries the range's previous
        holders.  Otherwise the reply feeds the cache (lease counted from
        ``issued``) -- unless a range flip moved ``routing_epoch`` off
        ``gen0`` since the read was issued: the key's primary may have
        changed under it, so it invalidates."""
        if not result.found:
            fwd = yield from self._forward_read(key, shard)
            if fwd is not None:
                return fwd
        if self.cache is not None:
            if self.cluster.routing_epoch != gen0:
                self.cache.invalidate(key)
            else:
                self.cache.admit(key, result, issued=issued)
        return result

    def _forward_read(self, key, shard: int):
        """Coroutine: the dual-read forwarding fallback -- retry ``shard``'s
        miss on the range's previous holders while ``key`` is inside its
        forwarding window; None when none is or none has it.  A hit here is
        returned but never cached (the old copy stops being authoritative
        when the window closes)."""
        shards = self.cluster.read_fallback(key)
        if shard in shards:
            return None
        for r in shards:
            if r >= len(self._shards):
                continue
            try:
                result = yield from self._call(r, "Get", key)
            except TTransportException:
                continue
            if result.found:
                if self._m_forward is not None:
                    self._m_forward.inc()
                return result
        return None

    def _failover(self, failed: int, shards, exc, method: str, *args):
        """Coroutine: the read-failover walk.  ``failed`` died with
        ``exc``: re-ask ``shards`` in order (skipping it) on the blocking
        stub and return ``(answering_shard, reply)``, or raise the last
        transport error -- ``exc`` itself when there is no replica.  A
        replica may lag its primary: callers never cache the reply.

        An admission rejection is not a failure: the shard is alive and
        shed the read on purpose, so re-asking a replica would only move
        the overload sideways.  It is raised as it came, whether the
        primary or a replica leg refused."""
        if isinstance(exc, TRejectedException):
            raise exc
        for r in shards:
            if r == failed:
                continue
            try:
                reply = yield from self._call(r, method, *args)
            except TRejectedException:
                raise
            except TTransportException as err:
                exc = err
                continue
            if self._m_read_failovers is not None:
                self._m_read_failovers.inc()
            return r, reply
        raise exc

    def _get_failover(self, failed: int, shards, exc, key):
        """Coroutine: :meth:`_failover` for one Get; invalidates the key."""
        _, result = yield from self._failover(failed, shards, exc, "Get", key)
        if self.cache is not None:
            self.cache.invalidate(key)
        return result

    # -- the stub API: reads -------------------------------------------------
    @_one_process
    def Get(self, key):
        """Coroutine: GetResult for ``key``; the hot-key cache sits above
        the shard fan-out, and reads fail over in preference order when a
        shard's transport is down.  Failover answers, and answers that
        crossed a migration cutover, are never cached."""
        entry = yield from self._cached(key, "Get")
        if entry is not None:
            return cache_hit_result(self.cluster.gen.GetResult, entry)
        gen0 = self.cluster.routing_epoch
        pref = self.cluster.preference(key)
        shard = pref[0]
        issued = self.node.sim.now
        try:
            result = yield from self._call(shard, "Get", key)
        except TTransportException as exc:
            return (yield from self._get_failover(shard, pref, exc, key))
        return (yield from self._primary_answered(key, shard, result,
                                                  issued, gen0))

    @_one_process
    def MultiGet(self, keys):
        """Coroutine: values for ``keys`` (b"" when absent), fanned as one
        server-side MultiGet per shard, reassembled in request order.
        Cached keys are served locally (batch replies carry no versions,
        so misses are not admitted here); a primary's miss inside the
        forwarding window is retried like ``Get``'s."""
        out: List[Optional[bytes]] = [None] * len(keys)
        groups: Dict[int, Tuple[List[int], List[bytes]]] = {}
        for pos, key in enumerate(keys):
            entry = yield from self._cached(key, "MultiGet")
            if entry is not None:
                out[pos] = _flat(entry)
                continue
            positions, subkeys = groups.setdefault(
                self.cluster.primary(key), ([], []))
            positions.append(pos)
            subkeys.append(key)
        handles = []
        for shard, (positions, subkeys) in groups.items():
            handles.append((shard, positions, subkeys, (
                yield from self._issue(shard, "MultiGet", subkeys))))
        for shard, positions, subkeys, h in handles:
            try:
                values = yield from h.wait()
            except TTransportException as exc:
                values = yield from self._multi_get_fallback(
                    shard, subkeys, exc)
            else:
                # The primary's misses take Get's forwarding decision.
                for i, value in enumerate(values):
                    if value == b"":
                        fwd = yield from self._forward_read(subkeys[i], shard)
                        if fwd is not None:
                            values[i] = fwd.value
            for pos, value in zip(positions, values):
                out[pos] = value
        return out

    def _multi_get_fallback(self, shard: int, subkeys, exc):
        """Coroutine: re-read one shard's sub-batch from its replicas.

        Statically all keys primaried on ``shard`` share one replica set,
        so the whole sub-batch retries on each successor.  During a
        migration that invariant is gone (replica sets are per-range), so
        the fallback degrades to per-key replica reads."""
        if self.cluster.migration is not None:
            values = []
            for key in subkeys:
                values.append(_flat((yield from self._get_failover(
                    shard, self.cluster.preference(key), exc, key))))
            return values
        _, values = yield from self._failover(
            shard, self.cluster.replica_shards(shard), exc,
            "MultiGet", subkeys)
        if self.cache is not None:
            for key in subkeys:
                self.cache.invalidate(key)
        return values

    @_one_process
    def Scan(self, start_key, count):
        """Coroutine: global scan -- hash sharding scatters key ranges, so
        every shard scans locally and the router merges the fronts.

        Replication surfaces a key from several shards, and a replica's
        copy may lag its primary (a write is applied primary-first, so a
        scan racing the replica fan-out -- or failing over mid-scan --
        can read the pre-write value there).  Dedup therefore prefers the
        row whose *answering* shard is the key's ring owner -- resolved
        against a :class:`RoutingView` frozen before the legs were
        issued, so a resize flipping a range *between merged rows* cannot
        re-rank a stale replica copy above the fresh one.  During a
        migration, rows from shards outside a key's current (or
        forwarding) replica set are dropped: a partially copied range on
        its future owner must not leak half-moved rows into the merge."""
        view = self.cluster.routing_view()
        handles = []
        for shard in range(len(self._shards)):
            if shard >= len(self._shards):
                break      # retired by a shrink mid-issue: nothing left on it
            handles.append((shard, (
                yield from self._issue(shard, "Scan", start_key, count))))
        migrating = self.cluster.migration is not None
        # key -> (came_from_primary, value)
        best: Dict[bytes, Tuple[bool, bytes]] = {}
        for shard, h in handles:
            src = shard
            try:
                flat = yield from h.wait()
            except TTransportException as exc:
                # src: the merge must know the rows are not primary answers
                src, flat = yield from self._failover(
                    shard, self.cluster.replica_shards(shard), exc,
                    "Scan", start_key, count)
            for i in range(0, len(flat), 2):
                k, v = flat[i], flat[i + 1]
                if migrating:
                    holders = set(self.cluster.preference(k)) \
                        | set(self.cluster.read_fallback(k))
                    if src not in holders:
                        continue
                primary = view.primary(k) == src
                cur = best.get(k)
                if cur is None or (primary and not cur[0]):
                    best[k] = (primary, v)
        out: List[bytes] = []
        for k in sorted(best):
            out.append(k)
            out.append(best[k][1])
            if len(out) == 2 * count:
                break
        return out

    # -- the stub API: writes ------------------------------------------------
    def _write_intent(self, keys):
        """Coroutine: gate a write on the cutover fence, count it
        in-flight, and resolve the replica set each key must land on.

        Waits out every fence covering a key, then registers and resolves
        all keys in one step.  There is no yield between the final fence
        check, the registration, and the preference resolution: the
        cooperative sim makes the three atomic, which is what guarantees
        a write is counted against -- and lands on -- exactly one side of
        a cutover (so a Put can never be acknowledged by two primaries).
        Returns ``(tokens, preferences)``, one per key; the caller must
        pass the tokens to :meth:`_write_done` in a finally block.
        """
        plan = self.cluster.routing
        hashes = [_hash64(k) for k in keys]
        while True:
            fences = {id(f): f for h in hashes
                      for f in (plan.fence_of(h),) if f is not None}
            if not fences:
                break
            for f in fences.values():
                yield f
        tokens = [plan.write_begin(h) for h in hashes]
        self.cluster._writes[id(tokens)] = (hashes, tokens)
        return tokens, [plan.preference(h) for h in hashes]

    def _write_done(self, keys, tokens) -> None:
        """Settle a write begun with :meth:`_write_intent`, however it
        ended: release the ranges' in-flight counts and invalidate."""
        del self.cluster._writes[id(tokens)]
        for key, token in zip(keys, tokens):
            if token is not None:
                token.settle_write(key)
        if self.cache is not None:
            for key in keys:
                self.cache.invalidate(key)

    def _write_one(self, method: str, key, *args):
        """Coroutine: one single-key write on every replica of its shard.

        Primary-first ordering: the owner's write must land before any
        replica is touched, so a write that fails because the owner is
        unreachable raises its typed transport error with every replica
        still holding the pre-write value -- the router never
        blind-retries writes and never lets a replica get ahead of its
        primary.  Under a migration the write first passes the cutover
        fence and is counted in-flight against its range."""
        tokens, (pref,) = yield from self._write_intent((key,))
        try:
            yield from self._call(pref[0], method, key, *args)
            yield from self._wave([(r, method, key, *args) for r in pref[1:]])
        finally:
            self._write_done((key,), tokens)

    @_one_process
    def Put(self, key, value):
        """Coroutine: store ``key`` (see :meth:`_write_one`)."""
        return self._write_one("Put", key, value)

    @_one_process
    def Delete(self, key):
        """Coroutine: remove ``key`` (same write discipline -- and
        migration write gate -- as :meth:`Put`)."""
        return self._write_one("Delete", key)

    def _wave(self, calls):
        """Coroutine: post every ``(shard, method, *args)`` of ``calls``,
        then wait for all; the first failure raises after all settled."""
        handles = []
        for shard, method, *args in calls:
            handles.append((yield from self._issue(shard, method, *args)))
        yield from gather(handles)

    def _write_batch(self, keys, values):
        """Coroutine: one batch write, wave by wave.

        :meth:`_shard_waves` lays the batch out as waves of calls, every
        primary in the first; a wave settles before the next starts
        (primary-first, as :meth:`_write_one`).  Replica sets are
        resolved once, under the migration write gate -- a re-resolve
        between waves could split one write across a cutover."""
        if len(keys) != len(values):
            raise ValueError("keys/values length mismatch")
        tokens, prefs = yield from self._write_intent(keys)
        try:
            for wave in self._shard_waves(keys, values, prefs):
                yield from self._wave(wave)
        finally:
            self._write_done(keys, tokens)

    @_one_process
    def MultiPut(self, keys, values):
        """Coroutine: store a batch, one server-side MultiPut per shard
        per replica, in two waves: every primary, then every replica."""
        return self._write_batch(keys, values)

    @staticmethod
    def _shard_waves(keys, values, prefs):
        # primary wave, then ONE wave for all further replicas
        waves: Tuple[dict, dict] = ({}, {})     # shard -> (keys, values)
        for key, value, pref in zip(keys, values, prefs):
            for hop, shard in enumerate(pref):
                ks, vs = waves[min(hop, 1)].setdefault(shard, ([], []))
                ks.append(key)
                vs.append(value)
        return [[(shard, "MultiPut", ks, vs)
                 for shard, (ks, vs) in wave.items()] for wave in waves]

    def close(self) -> None:
        """Tear down every shard client.  ``_closed`` flips first, so a
        read still walking its failover list fails its next leg typed
        (``NOT_OPEN``) instead of reaching a closed engine."""
        self._closed = True
        if self in self.cluster._routers:
            self.cluster._routers.remove(self)
        for shard in self._shards:
            shard.stub._hatrpc.close()
