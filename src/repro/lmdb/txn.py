"""Transactions: single-writer, snapshot readers.

A write transaction stages new tree versions privately and publishes them
atomically at commit (root-pointer swap).  Read transactions capture the
published roots at begin and never observe later writes -- LMDB's MVCC.

From its second put on, a write transaction copies a node the first time
it writes it and writes its own copies in place after that (LMDB's dirty
pages): it knows them from a set it drops at commit or abort.  Its first
put copies its path as a persistent put does, so a one-put transaction pays
nothing for the set.  Deletes always copy.  A cursor opened in a write
transaction starts a new set, so no later write of the transaction reaches
the tree the cursor walks.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.lmdb.btree import BTree
from repro.lmdb.env import Environment, SyncMode

__all__ = ["ReadersFullError", "Txn", "TxnError"]


class TxnError(RuntimeError):
    pass


class ReadersFullError(TxnError):
    """Reader table exhausted (MDB_READERS_FULL)."""


class Txn:
    """One transaction.  Use as a context manager or commit/abort manually."""

    def __init__(self, env: Environment, write: bool = False):
        self.env = env
        self.write = write
        self._done = False
        if write:
            if env._write_txn is not None:
                raise TxnError("another write transaction is active "
                               "(LMDB is single-writer)")
            env._write_txn = self
            self._staged: Dict[str, BTree] = {}
            #: the nodes this txn copied and may write in place (None until
            #: its second put); a set of identity-hashed nodes, never
            #: iterated
            self._dirty: Optional[set] = None
        else:
            if env._readers >= env.max_readers:
                raise ReadersFullError(
                    f"reader table full ({env.max_readers})")
            env._readers += 1
            self._snapshot = {name: db.tree
                              for name, db in env._dbs.items()}

    # -- context manager -------------------------------------------------------
    def __enter__(self) -> "Txn":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._done:
            return
        if exc_type is None and self.write:
            self.commit()
        else:
            self.abort()

    def _check_live(self) -> None:
        if self._done:
            raise TxnError("transaction already finished")

    def _tree(self, db: str) -> BTree:
        if self.write:
            if db in self._staged:
                return self._staged[db]
            return self.env._db(db).tree
        try:
            return self._snapshot[db]
        except KeyError:
            raise KeyError(f"database {db!r} not opened at txn begin") from None

    # -- operations ----------------------------------------------------------------
    def get(self, key: bytes, db: str = "main") -> Optional[bytes]:
        self._check_live()
        return self._tree(db).get(key)

    def put(self, key: bytes, value: bytes, db: str = "main") -> None:
        self._check_live()
        if not self.write:
            raise TxnError("put in a read-only transaction")
        tree = self._tree(db)
        old = tree.get(key)
        delta = len(key) + len(value) - (
            (len(key) + len(old)) if old is not None else 0)
        self.env._charge(delta)
        staged = self._staged
        if staged and self._dirty is None:
            self._dirty = set()
        staged[db] = tree.put(key, value, self._dirty)

    def delete(self, key: bytes, db: str = "main") -> bool:
        self._check_live()
        if not self.write:
            raise TxnError("delete in a read-only transaction")
        tree = self._tree(db)
        old = tree.get(key)
        if old is None:
            return False
        self.env._charge(-(len(key) + len(old)))
        self._staged[db] = tree.delete(key)
        return True

    def cursor(self, db: str = "main"):
        from repro.lmdb.cursor import Cursor
        self._check_live()
        if self.write:
            # later writes copy again, so the cursor's tree stays as it is
            self._dirty = set()
        return Cursor(self._tree(db))

    # -- lifecycle -----------------------------------------------------------------------
    def commit(self) -> None:
        self._check_live()
        self._done = True
        if self.write:
            self._dirty = None
            for name, tree in self._staged.items():
                self.env._db(name).tree = tree
            self.env._write_txn = None
            self.env.commits += 1
            if self.env.sync_mode is not SyncMode.NOSYNC:
                self.env.syncs += 1
        else:
            self.env._readers -= 1

    def abort(self) -> None:
        if self._done:
            return
        self._done = True
        if self.write:
            # Staged map-size charges are rolled back with the trees.
            self._dirty = None
            self.env._write_txn = None
            self._recompute_bytes()
        else:
            self.env._readers -= 1

    def _recompute_bytes(self) -> None:
        # Aborting discards staged trees; recompute live data bytes from the
        # published versions (cheap enough at our scales, exact always).
        total = 0
        for db in self.env._dbs.values():
            for k, v in db.tree.items():
                total += len(k) + len(v)
        self.env._data_bytes = total
