"""Environment: named databases, map-size accounting, reader table."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.lmdb.btree import BTree

__all__ = ["Environment", "EnvStat", "MapFullError", "SyncMode"]


class MapFullError(RuntimeError):
    """The environment outgrew its map_size (MDB_MAP_FULL)."""


class SyncMode(enum.Enum):
    SYNC = "sync"       # fsync on every commit
    ASYNC = "async"     # write-back, fdatasync-ish
    NOSYNC = "nosync"   # no durability barrier (the paper runs in tmpfs)


@dataclass(frozen=True)
class EnvStat:
    entries: int
    depth: int
    data_bytes: int
    map_size: int
    readers_in_use: int
    max_readers: int


class _NamedDB:
    __slots__ = ("name", "tree")

    def __init__(self, name: str):
        self.name = name
        self.tree = BTree()


class Environment:
    """An LMDB environment: the unit of map sizing and transaction scoping.

    ``max_readers`` bounds simultaneous read transactions (LMDB's reader
    lock table); HatKV sizes it from the ``concurrency`` hint.
    """

    def __init__(self, map_size: int = 1 << 30, max_readers: int = 126,
                 sync_mode: SyncMode = SyncMode.SYNC):
        if map_size <= 0:
            raise ValueError("map_size must be positive")
        if max_readers < 1:
            raise ValueError("max_readers must be >= 1")
        self.map_size = map_size
        self.max_readers = max_readers
        self.sync_mode = sync_mode
        self._dbs: Dict[str, _NamedDB] = {}
        self._data_bytes = 0
        self._write_txn = None
        self._readers = 0
        self.commits = 0
        self.syncs = 0

    # -- databases ------------------------------------------------------------
    def open_db(self, name: str = "main") -> str:
        """Create-or-open a named database; returns its handle (the name)."""
        if name not in self._dbs:
            self._dbs[name] = _NamedDB(name)
        return name

    def _db(self, name: str) -> _NamedDB:
        db = self._dbs.get(name)
        if db is None:
            raise KeyError(f"database {name!r} not opened")
        return db

    # -- transactions ------------------------------------------------------------
    def begin(self, write: bool = False):
        from repro.lmdb.txn import Txn
        return Txn(self, write=write)

    # -- bookkeeping used by Txn -----------------------------------------------------
    def _charge(self, delta: int) -> None:
        if self._data_bytes + delta > self.map_size:
            raise MapFullError(
                f"map_size {self.map_size} exceeded "
                f"({self._data_bytes + delta} bytes)")
        self._data_bytes += delta

    def depth(self, db: str = "main") -> int:
        """The published tree's depth: :meth:`stat`'s ``depth`` alone."""
        return self._db(db).tree.depth

    def stat(self, db: str = "main") -> EnvStat:
        tree = self._db(db).tree
        return EnvStat(entries=tree.size, depth=tree.depth,
                       data_bytes=self._data_bytes, map_size=self.map_size,
                       readers_in_use=self._readers,
                       max_readers=self.max_readers)
