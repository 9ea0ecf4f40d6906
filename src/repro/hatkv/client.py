"""HatKV client helper."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.engine import ServicePlan
from repro.core.hints import cacheable_hint, resolve_hints
from repro.core.runtime import AsyncCaller, hatrpc_connect
from repro.hatkv.cache import (HIT_COST, HotKeyCache, cache_hit_result,
                               trace_cache_hit)
from repro.hatkv.server import BASE_SID, SERVICE

__all__ = ["IDEMPOTENT_FUNCTIONS", "KVClient", "cache_for", "connect_hatkv",
           "multi_delete", "multi_get", "multi_put"]

#: KVService functions that are safe to re-send after a transport failure:
#: the read set.  Put/MultiPut are deliberately absent -- a lost-ACK retry
#: could double-apply a write, so the engine refuses to blind-retry them
#: (the application must re-issue under a fresh seqid if it wants
#: at-least-once writes).
IDEMPOTENT_FUNCTIONS = ("Get", "MultiGet", "Scan")


def connect_hatkv(node, server_node, gen_module,
                  concurrency: Optional[int] = None,
                  plan: Optional[ServicePlan] = None,
                  base_service_id: int = BASE_SID,
                  deadline: Optional[float] = None,
                  retry_policy=None, rng=None,
                  pipeline: bool = False, trace_attrs=None,
                  tunable: bool = False, tuner=None):
    """Coroutine: a connected KVService stub.

    All stub methods are coroutines: ``value = yield from stub.Get(key)``.
    The read functions are pre-registered idempotent, so the engine may
    transparently retry / fail them over under injected faults; writes are
    never blind-retried.  ``pipeline=True`` (matched by the server) enables
    the batched helpers :func:`multi_get` / :func:`multi_put`, which
    overlap the per-key round trips under the channel's in-flight window.
    """
    stub = yield from hatrpc_connect(node, server_node, gen_module, SERVICE,
                                     base_service_id=base_service_id,
                                     concurrency=concurrency, plan=plan,
                                     deadline=deadline,
                                     retry_policy=retry_policy,
                                     idempotent=IDEMPOTENT_FUNCTIONS,
                                     rng=rng, pipeline=pipeline,
                                     trace_attrs=trace_attrs,
                                     tunable=tunable, tuner=tuner)
    return stub


def _caller_of(stub) -> AsyncCaller:
    client = getattr(stub, "_hatrpc", None)
    if client is None:
        raise RuntimeError("stub was not built by connect_hatkv / "
                           "hatrpc_connect (no _hatrpc client attached)")
    return client.async_caller()


def multi_get(stub, keys: Sequence[bytes]):
    """Coroutine: the values for ``keys``, fetched as one pipelined batch.

    Unlike the server-side ``MultiGet`` (one big request), this issues one
    ``Get`` per key under the channel's in-flight window -- the client-side
    batching ``AsyncCaller.call_many`` provides.  Missing keys come back
    as ``b""`` (flattened from Get's ``GetResult.found`` flag, matching
    the MultiGet wire convention).
    """
    results = yield from _caller_of(stub).call_many(
        [("Get", key) for key in keys])
    return [r.value if r.found else b"" for r in results]


def multi_put(stub, keys: Sequence[bytes], values: Sequence[bytes]):
    """Coroutine: store ``values`` under ``keys`` as one pipelined batch."""
    if len(keys) != len(values):
        raise ValueError("keys/values length mismatch")
    return _caller_of(stub).call_many(
        [("Put", k, v) for k, v in zip(keys, values)])


def multi_delete(stub, keys: Sequence[bytes]):
    """Coroutine: remove ``keys`` as one pipelined batch (one ``Delete``
    per key under the channel window).  The migration driver uses this to
    propagate deletions that landed while a range's snapshot streamed."""
    return _caller_of(stub).call_many([("Delete", k) for k in keys])


def cache_for(node, gen_module, capacity: int = 4096
              ) -> Optional[HotKeyCache]:
    """A :class:`HotKeyCache` sized from the gen module's cacheable hint
    (client-side resolution for Get), or None when the hint is absent."""
    hint_map = gen_module.SERVICE_HINTS.get(SERVICE, {})
    cc = cacheable_hint(resolve_hints(
        hint_map.get("service", {}),
        hint_map.get("functions", {}).get("Get"), "client"))
    if cc is None:
        return None
    return HotKeyCache(node.sim, cc.ttl, hot_promote=cc.hot_promote,
                       capacity=capacity)


class KVClient:
    """Cache-aware KVService client for one server.

    Wraps a connected stub: ``Get`` (and the batched ``multi_get``)
    consult the :class:`HotKeyCache` before any RPC, writes invalidate,
    and misses on promoted hot keys ride the plan's one-sided hot-read
    channel.  With ``cache=None`` (service not marked cacheable) every
    method delegates straight to the stub -- the call flow is untouched.
    """

    def __init__(self, stub, cache: Optional[HotKeyCache] = None):
        self._stub = stub
        self.cache = cache
        self._client = stub._hatrpc
        self._engine = self._client.engine
        self._result_cls = self._client.gen.GetResult
        self._caller = self._client.async_caller()
        self._hot = self._engine.hot_read_channel() if cache is not None \
            else None

    def _serve_hit(self, entry):
        yield self._engine.node.compute(HIT_COST)
        trace_cache_hit(self._engine, "Get", entry)
        return cache_hit_result(self._result_cls, entry)

    def _get_miss(self, key):
        """Coroutine: one Get over the wire, hot-read steered when the
        key is promoted AND the RPC window is saturated (the one-sided
        read costs more trips, so it only pays when it relieves a
        congested request channel); the reply feeds the cache."""
        issued = self._engine.node.sim.now
        if self._hot is not None and self.cache.promoted(key) \
                and self._engine.channel_saturated("Get"):
            self.cache.count_hot_read()
            h = yield from self._caller.call_async("Get", key,
                                                   channel=self._hot)
            r = yield from h.wait()
        else:
            r = yield from self._stub.Get(key)
        self.cache.admit(key, r, issued=issued)
        return r

    def Get(self, key):
        if self.cache is None:
            return (yield from self._stub.Get(key))
        entry = self.cache.lookup(key)
        if entry is not None:
            return (yield from self._serve_hit(entry))
        return (yield from self._get_miss(key))

    def Put(self, key, value):
        try:
            return (yield from self._stub.Put(key, value))
        finally:
            if self.cache is not None:
                self.cache.invalidate(key)

    def Delete(self, key):
        try:
            return (yield from self._stub.Delete(key))
        finally:
            if self.cache is not None:
                self.cache.invalidate(key)

    def MultiGet(self, keys):
        """Coroutine: server-side MultiGet with cached keys served
        locally (the big-batch replies carry no versions, so misses are
        not admitted here)."""
        if self.cache is None:
            return (yield from self._stub.MultiGet(keys))
        out: list = [None] * len(keys)
        miss_idx = []
        for i, key in enumerate(keys):
            entry = self.cache.lookup(key)
            if entry is not None:
                yield self._engine.node.compute(HIT_COST)
                trace_cache_hit(self._engine, "MultiGet", entry)
                out[i] = entry.value if entry.found else b""
            else:
                miss_idx.append(i)
        if miss_idx:
            values = yield from self._stub.MultiGet(
                [keys[i] for i in miss_idx])
            for i, v in zip(miss_idx, values):
                out[i] = v
        return out

    def MultiPut(self, keys, values):
        try:
            return (yield from self._stub.MultiPut(keys, values))
        finally:
            if self.cache is not None:
                for key in keys:
                    self.cache.invalidate(key)

    def Scan(self, start_key, count):
        return (yield from self._stub.Scan(start_key, count))

    def multi_get(self, keys: Sequence[bytes]):
        """Coroutine: per-key pipelined reads -- cache hits served
        locally, misses overlapped under the channel window (promoted
        keys one-sided), replies admitted."""
        if self.cache is None:
            return (yield from multi_get(self._stub, keys))
        out: list = [None] * len(keys)
        pending = []
        for i, key in enumerate(keys):
            entry = self.cache.lookup(key)
            if entry is not None:
                yield self._engine.node.compute(HIT_COST)
                trace_cache_hit(self._engine, "Get", entry)
                out[i] = entry.value if entry.found else b""
            else:
                chan = None
                if self._hot is not None and self.cache.promoted(key) \
                        and self._engine.channel_saturated("Get"):
                    self.cache.count_hot_read()
                    chan = self._hot
                issued = self._engine.node.sim.now
                h = yield from self._caller.call_async("Get", key,
                                                       channel=chan)
                pending.append((i, key, h, issued))
        for i, key, h, issued in pending:
            r = yield from h.wait()
            self.cache.admit(key, r, issued=issued)
            out[i] = r.value if r.found else b""
        return out

    def multi_put(self, keys: Sequence[bytes], values: Sequence[bytes]):
        try:
            return (yield from multi_put(self._stub, keys, values))
        finally:
            if self.cache is not None:
                for key in keys:
                    self.cache.invalidate(key)
