"""The extended core workload of Section 5.4."""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.ycsb.generators import (
    DiscreteGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)

__all__ = ["InsertSequence", "OpType", "WORKLOAD_A", "WORKLOAD_B",
           "Workload", "WorkloadSpec"]

KEY_LENGTH = 24          # bytes (S5.4)
FIELD_LENGTH = 100       # bytes per field
FIELD_COUNT = 10         # -> 1000-byte values
BATCH_SIZE = 10          # MultiGET / MultiPUT batching


class OpType(enum.Enum):
    GET = "get"
    PUT = "put"
    MULTI_GET = "multi_get"
    MULTI_PUT = "multi_put"
    SCAN = "scan"
    INSERT = "insert"


@dataclass(frozen=True)
class WorkloadSpec:
    """Operation mix + keyspace parameters.

    ``theta`` is the zipfian skew constant (YCSB's 0.99 default; only
    meaningful for the zipfian distribution) and ``field_length`` the
    bytes per field (values are ``field_length * FIELD_COUNT`` bytes) --
    the two scenario-matrix axes of the phased benchmark harness.
    """

    name: str
    mix: tuple                      # ((OpType, weight), ...)
    record_count: int = 1000
    distribution: str = "zipfian"   # or 'uniform'
    theta: float = 0.99             # zipfian request skew
    field_length: int = FIELD_LENGTH


#: Workload A with GET/PUT halved for MultiGET/MultiPUT (S5.4).
WORKLOAD_A = WorkloadSpec("A", ((OpType.GET, 0.25), (OpType.PUT, 0.25),
                                (OpType.MULTI_GET, 0.25),
                                (OpType.MULTI_PUT, 0.25)))

#: Workload B (read-intensive), likewise halved.
WORKLOAD_B = WorkloadSpec("B", ((OpType.GET, 0.475), (OpType.PUT, 0.025),
                                (OpType.MULTI_GET, 0.475),
                                (OpType.MULTI_PUT, 0.025)))

#: Library extensions beyond the paper's evaluation: the remaining standard
#: YCSB mixes, with the paper's halving convention applied to reads.
WORKLOAD_C = WorkloadSpec("C", ((OpType.GET, 0.5),
                                (OpType.MULTI_GET, 0.5)))
WORKLOAD_D = WorkloadSpec("D", ((OpType.GET, 0.95), (OpType.INSERT, 0.05)),
                          distribution="latest")
WORKLOAD_E = WorkloadSpec("E", ((OpType.SCAN, 0.95), (OpType.INSERT, 0.05)))


class InsertSequence:
    """Run-wide insert index allocator, shared by every client's Workload.

    Each INSERT claims the next global index, and the high-water mark it
    exposes is what the 'latest' distribution keys off.  A per-client view
    (the old ``insert_start`` stripes) only advanced on that client's own
    inserts, so with 16 clients the 'latest' hot set was ~16x staler than
    the true most-recent insert.  The simulator is cooperatively scheduled,
    so claim-then-increment needs no locking.
    """

    def __init__(self, start: int):
        self._next = start
        self.start = start

    def next_index(self) -> int:
        idx = self._next
        self._next += 1
        return idx

    @property
    def high_water(self) -> int:
        """Largest index claimed so far (start - 1 if none yet)."""
        return self._next - 1


class Workload:
    """Generates keys, values, and an operation stream for one client."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0,
                 insert_start: int | None = None,
                 insert_seq: InsertSequence | None = None):
        self.spec = spec
        hwm = ((lambda: insert_seq.high_water)
               if insert_seq is not None else None)
        if spec.distribution == "zipfian":
            self._keychooser = ScrambledZipfianGenerator(spec.record_count,
                                                         seed=seed,
                                                         theta=spec.theta)
        elif spec.distribution == "uniform":
            self._keychooser = UniformGenerator(0, spec.record_count - 1,
                                                seed=seed)
        elif spec.distribution == "latest":
            self._keychooser = LatestGenerator(spec.record_count, seed=seed,
                                               hwm=hwm)
        else:
            raise ValueError(f"unknown distribution {spec.distribution!r}")
        self._ops = DiscreteGenerator(
            [(op.value, w) for op, w in spec.mix], seed=seed + 1)
        self._value_rng = random.Random(seed + 2)
        # INSERT ops claim fresh indices past the loaded keyspace: from the
        # shared run-wide sequence when one is wired, else from a private
        # stripe (disjoint per client so concurrent inserts never collide).
        self._insert_seq = insert_seq
        self._insert_next = (insert_start if insert_start is not None
                             else spec.record_count)

    # -- data shaping -----------------------------------------------------------
    @staticmethod
    def key_of(index: int) -> bytes:
        # Zero-padded so every index maps to a distinct fixed-width key.
        return f"user{index:020d}".encode()[:KEY_LENGTH]

    def value(self) -> bytes:
        return self._value_rng.randbytes(self.spec.field_length * FIELD_COUNT)

    def load_items(self):
        """The (key, value) pairs of the load phase."""
        for i in range(self.spec.record_count):
            yield self.key_of(i), self.value()

    # -- the request stream ----------------------------------------------------------
    def next_op(self):
        """One operation: (OpType, payload tuple)."""
        op = OpType(self._ops.next())
        if op is OpType.GET:
            return op, (self.key_of(self._keychooser.next()),)
        if op is OpType.PUT:
            return op, (self.key_of(self._keychooser.next()), self.value())
        if op is OpType.SCAN:
            return op, (self.key_of(self._keychooser.next()), BATCH_SIZE)
        if op is OpType.INSERT:
            if self._insert_seq is not None:
                idx = self._insert_seq.next_index()
            else:
                idx = self._insert_next
                self._insert_next += 1
                if hasattr(self._keychooser, "advance"):
                    self._keychooser.advance()
            return op, (self.key_of(idx), self.value())
        keys = [self.key_of(self._keychooser.next())
                for _ in range(BATCH_SIZE)]
        if op is OpType.MULTI_GET:
            return op, (keys,)
        return op, (keys, [self.value() for _ in keys])
