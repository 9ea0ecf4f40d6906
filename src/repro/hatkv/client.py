"""HatKV client helper."""

from __future__ import annotations

from typing import Optional

from repro.core.engine import ServicePlan
from repro.core.hints import cacheable_hint, resolve_hints
from repro.core.runtime import hatrpc_connect
from repro.hatkv.cache import HotKeyCache
from repro.hatkv.server import BASE_SID, SERVICE

__all__ = ["IDEMPOTENT_FUNCTIONS", "cache_for", "connect_hatkv"]

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
    calls posted on ``stub._hatrpc.async_caller()`` -- the shard router's
    batch legs and the migration copy stream -- overlap their round trips
    under the channel's in-flight window.
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


def cache_for(node, gen_module) -> Optional[HotKeyCache]:
    """A :class:`HotKeyCache` sized from the gen module's cacheable hint
    (client-side resolution for Get), or None when the hint is absent."""
    hint_map = gen_module.SERVICE_HINTS.get(SERVICE, {})
    cc = cacheable_hint(resolve_hints(
        hint_map.get("service", {}),
        hint_map.get("functions", {}).get("Get"), "client"))
    if cc is None:
        return None
    return HotKeyCache(node.sim, cc.ttl)
