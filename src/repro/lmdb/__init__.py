"""An LMDB-like embedded key-value store.

Substitutes for the real LMDB [1] the paper uses as HatKV's storage backend.
The essential architecture is preserved:

* a **copy-on-write B+Tree** -- a writer never mutates a published page; a
  write txn copies a page once and writes its own copy in place after that
  (LMDB's dirty pages); commits swap the root pointer, so readers are never
  blocked;
* **single-writer / multi-reader MVCC** -- one write transaction at a time;
  read transactions pin the root they started from and a slot in a bounded
  reader table (``max_readers``, which HatKV tunes from the concurrency
  hint);
* **named databases** inside one environment, a ``map_size`` bound, and
  sync-mode commit flags (``SYNC`` / ``NOSYNC`` / ``ASYNC``) that HatKV maps
  to simulated commit cost.

The library itself is simulation-agnostic pure Python; HatKV's backend
adapter charges simulated CPU/IO time around these calls.
"""

from repro.lmdb.btree import BTree
from repro.lmdb.env import Environment, EnvStat, MapFullError, SyncMode
from repro.lmdb.txn import ReadersFullError, Txn, TxnError
from repro.lmdb.cursor import Cursor

__all__ = [
    "BTree",
    "Cursor",
    "Environment",
    "EnvStat",
    "MapFullError",
    "ReadersFullError",
    "SyncMode",
    "Txn",
    "TxnError",
]
