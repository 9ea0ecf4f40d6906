"""HatKV client helper."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.engine import ServicePlan
from repro.core.hints import cacheable_hint, resolve_hints
from repro.core.runtime import AsyncCaller, hatrpc_connect
from repro.hatkv.cache import HotKeyCache
from repro.hatkv.server import BASE_SID, SERVICE

__all__ = ["IDEMPOTENT_FUNCTIONS", "cache_for", "connect_hatkv",
           "multi_delete", "multi_put"]

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
    never blind-retried.  ``pipeline=True`` (matched by the server) lets
    the batched helpers :func:`multi_put` / :func:`multi_delete` -- and the
    shard router's ``multi_get`` / ``multi_put`` -- overlap the per-key
    round trips under the channel's in-flight window.
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


def multi_put(stub, keys: Sequence[bytes], values: Sequence[bytes]):
    """Coroutine: store ``values`` under ``keys`` as one pipelined batch:
    one ``Put`` per key under the channel's in-flight window (client-side
    batching, ``AsyncCaller.call_many``) -- not one big ``MultiPut``."""
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
