"""HatKV: the key-value store co-designed with HatRPC and LMDB (Section 4.4).

Figure 10's pieces first, then this repo's scale-out around them:

* :mod:`repro.hatkv.idl` -- the KVService IDL with the paper's hint sets
  (service-level ``concurrency``/``perf_goal``; per-function payload-size
  hints sized for GET/PUT/MultiGET/MultiPUT with 24-byte keys, 1000-byte
  values, batch 10);
* :mod:`repro.hatkv.backend` -- the LMDB adapter, including the hint-driven
  backend tuning the paper describes (max_readers from the concurrency
  hint; sync/commit strategy keyed to the chosen protocol's goal);
* :mod:`repro.hatkv.server` / :mod:`repro.hatkv.client` -- the HatRPC
  service assembly (handler and lease table; ``connect_hatkv``);
* :mod:`repro.hatkv.sharding` -- ring, cluster and :class:`ShardRouter`,
  the one KV client (a single server is a 1-shard cluster);
* :mod:`repro.hatkv.cache` / :mod:`repro.hatkv.migration` -- the hot-key
  cache behind the ``cacheable`` hint; the routing plan and live resize.
"""

from repro.hatkv.idl import hatkv_idl, load_hatkv_module
from repro.hatkv.backend import BackendCosts, LmdbBackend
from repro.hatkv.cache import HotKeyCache
from repro.hatkv.migration import (MigrationPlan, RangeHandedOffError,
                                   RangeState, ResizeTrigger)
from repro.hatkv.server import HatKVServer, LeaseTable
from repro.hatkv.client import cache_for, connect_hatkv
from repro.hatkv.sharding import (HashRing, RouterInUseError, ShardRouter,
                                  ShardedKVCluster)

__all__ = [
    "BackendCosts",
    "HashRing",
    "HatKVServer",
    "HotKeyCache",
    "LeaseTable",
    "LmdbBackend",
    "MigrationPlan",
    "RangeHandedOffError",
    "RangeState",
    "ResizeTrigger",
    "RouterInUseError",
    "ShardRouter",
    "ShardedKVCluster",
    "cache_for",
    "connect_hatkv",
    "hatkv_idl",
    "load_hatkv_module",
]
