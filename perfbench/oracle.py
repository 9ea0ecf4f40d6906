"""Reply checking: what every driver op's answer is compared against.

``Recorder`` is the per-repeat ledger (attempted / failed counts, sim
latencies, the ``sim_digest`` hash).  ``KVOracle`` decides whether a value
read from the store is one a correct store could have returned.
"""

from __future__ import annotations

import hashlib
import struct
import traceback
from typing import Dict, List, Optional

__all__ = ["KVOracle", "Recorder"]

_DIGEST_REC = struct.Struct("<HBd")


class Recorder:
    """Ledger of one repeat: every driver op lands here exactly once."""

    def __init__(self, op_names):
        self._code = {name: i for i, name in enumerate(op_names)}
        #: measured sim latencies (seconds) per op name
        self.latencies: Dict[str, List[float]] = {n: [] for n in op_names}
        #: sim time at which each client issued its first measured op
        self.first_measured: Dict[int, float] = {}
        self.attempted = 0
        self.failed = 0
        self.first_error: Optional[str] = None
        #: sim time of the first measured issue / last measured completion
        self.window_start: Optional[float] = None
        self.window_end = 0.0
        self._hash = hashlib.sha256()

    def record(self, client: int, op: str, t0: float, t1: float, ok: bool,
               measured: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"client {client}: wrong reply to {op}"
        self._hash.update(_DIGEST_REC.pack(client, self._code[op], t1 - t0))
        if measured:
            self.latencies[op].append(t1 - t0)
            self.first_measured.setdefault(client, t0)
            if self.window_start is None or t0 < self.window_start:
                self.window_start = t0
            if t1 > self.window_end:
                self.window_end = t1

    def raised(self, client: int, op: str, exc: BaseException) -> None:
        """Keep the first exception's traceback for the report; the caller
        still records the op as failed."""
        if self.first_error is None:
            self.first_error = (f"client {client}: {op} raised\n" + "".join(
                traceback.format_exception(type(exc), exc,
                                           exc.__traceback__)))

    @property
    def measured_ops(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def digest(self, sim_now: float) -> str:
        h = self._hash.copy()
        h.update(struct.pack("<d", sim_now))
        return h.hexdigest()


class _Write:
    __slots__ = ("issued", "acked", "value")

    def __init__(self, issued: float, value: bytes):
        self.issued = issued
        self.acked: Optional[float] = None
        self.value = value


class KVOracle:
    """Per-key register check under concurrent closed-loop clients.

    A read issued at ``r0`` and answered at ``r1`` may return the value of
    write W iff W was issued by ``r1`` and no other write W' ran entirely
    between W's acknowledgement and ``r0``.  With one client this is "the
    last value this driver had acknowledged at issue time"; with 48 it
    also admits the writes still in flight, whose order the store alone
    decides.  The loader's value is the write that precedes all others.
    A write that raised stays unacknowledged, so it may or may not show.
    """

    def __init__(self, loaded: Dict[bytes, bytes]):
        self.loaded = loaded
        self._writes: Dict[bytes, List[_Write]] = {}

    def begin_write(self, key: bytes, value: bytes, now: float) -> _Write:
        w = _Write(now, value)
        self._writes.setdefault(key, []).append(w)
        return w

    @staticmethod
    def end_write(w: _Write, now: float) -> None:
        w.acked = now

    def written_keys(self) -> List[bytes]:
        return list(self._writes)

    def check_read(self, key: bytes, value: Optional[bytes], issued: float,
                   answered: float) -> bool:
        """True iff ``value`` (None = reported absent) is admissible."""
        writes = self._writes.get(key)
        if not writes:
            return value is not None and value == self.loaded.get(key)
        # Issue time of the latest write acknowledged before the read began.
        floor = max((w.issued for w in writes
                     if w.acked is not None and w.acked < issued),
                    default=None)
        if floor is None and value == self.loaded.get(key):
            return value is not None
        return any(w.value == value and w.issued <= answered
                   and (floor is None or w.acked is None or w.acked >= floor)
                   for w in writes)
