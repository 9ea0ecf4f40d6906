"""YCSB request-distribution generators.

Ports of the generators in the YCSB core package [Cooper et al., SoCC'10]:
the zipfian generator uses the Gray et al. "Quickly generating
billion-record synthetic databases" constant-time algorithm, and the
scrambled variant spreads the hot items across the keyspace with a hash,
both exactly as upstream YCSB does.
"""

from __future__ import annotations

import functools
import random
from typing import List, Sequence, Tuple

__all__ = [
    "DiscreteGenerator",
    "LatestGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
#: ``_FNV_PRIME ** k mod 2**64``: k rounds that XOR in a zero byte.
_FNV_PRIME_POW = [pow(_FNV_PRIME, k, 1 << 64) for k in range(9)]


def fnv1a_64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value`` (YCSB's hash).

    The rounds above the highest non-zero byte XOR in 0, so they are one
    multiplication by ``_FNV_PRIME ** k``: a record number takes two or
    three rounds, not eight."""
    value &= _MASK64
    n = (value.bit_length() + 7) >> 3
    h = _FNV_OFFSET
    for _ in range(n):
        h = ((h ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
        value >>= 8
    return (h * _FNV_PRIME_POW[8 - n]) & _MASK64


class UniformGenerator:
    def __init__(self, lo: int, hi: int, seed: int = 0):
        if hi < lo:
            raise ValueError("hi < lo")
        self.lo, self.hi = lo, hi
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randint(self.lo, self.hi)


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n) with constant-time sampling."""

    ZIPFIAN_CONSTANT = 0.99

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT,
                 seed: int = 0):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self.zeta_n = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        denom = 1 - self.zeta2 / self.zeta_n
        # n <= 2 degenerates (zeta2 == zeta_n); the early-return branches in
        # next() then cover the whole [0, zeta_n) range, so eta is unused.
        self.eta = (0.0 if abs(denom) < 1e-12
                    else (1 - (2.0 / n) ** (1 - theta)) / denom)

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def _zeta(n: int, theta: float) -> float:
        # Memoised: every client's Workload asks for the same (n, theta), and
        # the n-term sum was the largest single cost of a sharded run's
        # set-up.  The cached value is this very sum, so the key streams are
        # unchanged to the bit.
        return sum(1.0 / (i + 1) ** theta for i in range(n))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        base = max(self.eta * u - self.eta + 1, 0.0)
        return min(int(self.n * base ** self.alpha), self.n - 1)


class ScrambledZipfianGenerator:
    """Zipfian popularity ranks scattered over the keyspace via FNV."""

    def __init__(self, n: int, seed: int = 0,
                 theta: float = ZipfianGenerator.ZIPFIAN_CONSTANT):
        self.n = n
        self.theta = theta
        self._zipf = ZipfianGenerator(n, theta=theta, seed=seed)

    def next(self) -> int:
        return fnv1a_64(self._zipf.next()) % self.n


class LatestGenerator:
    """Skewed towards the most recently inserted item (YCSB 'latest').

    ``hwm`` is an optional zero-arg callable returning the run-wide insert
    high-water mark.  Without it the generator only sees its *own* client's
    inserts -- with 16 concurrent clients the hot end of the distribution
    then lags the true latest insert by ~16x, which is not what YCSB-D
    models.  Wire every client's generator to one shared
    :class:`~repro.ycsb.workload.InsertSequence` to fix that.
    """

    def __init__(self, n: int, seed: int = 0, hwm=None):
        self._max = n - 1
        self._hwm = hwm
        self._zipf = ZipfianGenerator(n, seed=seed)

    def advance(self) -> None:
        self._max += 1

    def next(self) -> int:
        last = self._max if self._hwm is None else max(self._hwm(), self._max)
        return last - self._zipf.next() % (last + 1)


class DiscreteGenerator:
    """Weighted choice among labeled outcomes (the operation mix)."""

    def __init__(self, weighted: Sequence[Tuple[str, float]], seed: int = 0):
        if not weighted:
            raise ValueError("empty mix")
        total = sum(w for _, w in weighted)
        if total <= 0:
            raise ValueError("weights must sum to > 0")
        self._items: List[Tuple[str, float]] = []
        acc = 0.0
        for label, w in weighted:
            if w < 0:
                raise ValueError(f"negative weight for {label}")
            acc += w / total
            self._items.append((label, acc))
        self._rng = random.Random(seed)

    def next(self) -> str:
        u = self._rng.random()
        for label, cum in self._items:
            if u <= cum:
                return label
        return self._items[-1][0]
