"""Allocation-light metrics: counters, gauges, log-bucketed histograms.

The registry is the paper-evaluation companion to :mod:`repro.obs.trace`:
where the trace records *per-call* spans, the registry accumulates *cheap
aggregate* instruments that every runtime layer (engine, protocols, verbs
datapath, netfab, thrift servers, HatKV) reports into.  RPCAcc-style
per-stage attribution falls out of the naming convention: each layer owns a
dotted prefix (``engine.``, ``proto.``, ``verbs.``, ``cq.``, ``netfab.``,
``thrift.``, ``hatkv.``, ``selector.``).

Cost discipline
---------------
* **Off by default, zero hot-path cost.**  Instrumented components capture
  their instruments (or ``None``) once at construction from
  :func:`repro.obs.current`; a disabled run pays exactly one attribute
  ``is not None`` check per instrumented site -- the same guard pattern as
  :mod:`repro.obs.trace`.
* **Allocation-light when on.**  Counters and gauges are a single float
  slot; histograms hold one small dict of log-spaced bucket counts, never
  the raw samples.

Concurrency: the simulator is cooperative and single-threaded, so plain
``+=`` updates are atomic with respect to process switches (which only
happen at ``yield``).  No locks are needed or taken.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (ops, bytes, decisions)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """An instantaneous level (queue depth, in-flight calls)."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0
        self.high_water: float = 0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.high_water:
            self.high_water = v

    def inc(self, n: float = 1) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Log-bucketed distribution.

    Samples are assigned to geometric buckets: bucket ``i`` covers
    ``(lowest * 2**(i-1), lowest * 2**i]``, with everything at or below
    ``lowest`` in bucket 0.  Quantiles are answered from the bucket counts
    by nearest rank, returning the bucket's upper bound -- so a reported
    percentile ``q`` satisfies ``exact <= q <= exact * GROWTH`` (one
    bucket of relative error, never an underestimate).  ``min``, ``max``,
    ``sum`` and ``count`` are tracked exactly.
    """

    #: ratio of one bucket's upper edge to the previous one's
    GROWTH = 2.0
    _LOG_GROWTH = math.log(GROWTH)

    __slots__ = ("name", "lowest", "count", "total",
                 "min_value", "max_value", "buckets")

    def __init__(self, name: str, lowest: float = 1e-9):
        if lowest <= 0:
            raise ValueError("lowest bound must be positive")
        self.name = name
        self.lowest = lowest
        self.count = 0
        self.total: float = 0.0
        self.min_value: float = math.inf
        self.max_value: float = -math.inf
        self.buckets: Dict[int, int] = {}

    # -- recording ---------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        if value <= self.lowest:
            return 0
        # ceil with a tiny epsilon so exact bucket bounds stay in their
        # bucket despite float log round-off.
        return max(0, math.ceil(
            math.log(value / self.lowest) / self._LOG_GROWTH - 1e-9))

    def bucket_bound(self, index: int) -> float:
        """Upper (inclusive) edge of bucket ``index``."""
        return self.lowest * self.GROWTH ** index

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative sample {value!r} in {self.name}")
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        idx = self.bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    # -- reading -----------------------------------------------------------
    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no samples")
        return self.total / self.count

    @property
    def min(self) -> float:
        if self.count == 0:
            raise ValueError("no samples")
        return self.min_value

    @property
    def max(self) -> float:
        if self.count == 0:
            raise ValueError("no samples")
        return self.max_value

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile from the buckets (upper bucket edge)."""
        if self.count == 0:
            raise ValueError("no samples")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0,100], got {p}")
        rank = max(1, math.ceil(p / 100 * self.count))
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                # Clamp to the exact extremes so the tails stay honest.
                return min(max(self.bucket_bound(idx), self.min_value),
                           self.max_value)
        raise AssertionError("bucket counts do not cover count")

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> Dict[str, float]:
        """Snapshot dict; ``{"count": 0}`` when empty."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count}>"


def _nest(flat: Dict[str, Any]) -> Dict[str, Any]:
    """Explode dotted names into a nested dict tree.

    A name that is both a leaf and a prefix (``a`` and ``a.b``) keeps the
    leaf under the reserved key ``""``.
    """
    out: Dict[str, Any] = {}
    for name in sorted(flat):
        node = out
        parts = name.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {} if nxt is None else {"": nxt}
                node[part] = nxt
            node = nxt
        leaf = parts[-1]
        if isinstance(node.get(leaf), dict):
            node[leaf][""] = flat[name]
        else:
            node[leaf] = flat[name]
    return out


class MetricsRegistry:
    """Get-or-create home for every instrument in one run.

    Instruments are identified by dotted names; asking twice for the same
    name returns the same object, so independent components (every client
    engine, every CQ) aggregate into shared cluster-wide instruments.

    ``probe(name, fn)`` registers a *pull* source: a zero-argument callable
    returning a flat ``{key: number}`` dict, sampled at :meth:`snapshot`
    time.  Several probes may share a name (one per engine, one per
    fabric); their dicts are summed key-wise -- this is how the engines'
    ``FaultCounters`` fold in as one metric group.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.probes: List[Tuple[str, Callable[[], Dict[str, float]]]] = []

    # -- get-or-create -----------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, lowest: float = 1e-9) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, lowest)
        return h

    def probe(self, name: str,
              fn: Callable[[], Dict[str, float]]) -> None:
        self.probes.append((name, fn))

    # -- reading -----------------------------------------------------------
    def probe_values(self) -> Dict[str, Dict[str, float]]:
        """Sample every probe, summing groups that share a name."""
        out: Dict[str, Dict[str, float]] = {}
        for name, fn in self.probes:
            group = out.setdefault(name, {})
            for key, value in fn().items():
                group[key] = group.get(key, 0) + value
        return out

    def snapshot(self, nested: bool = True) -> Dict[str, Any]:
        """One structured view of everything the run recorded.

        ``nested=True`` (default) explodes dotted instrument names into a
        tree; ``nested=False`` keeps them flat (the form the benchmark
        pipeline serializes).
        """
        counters = {n: c.value for n, c in self.counters.items()}
        gauges = {n: {"value": g.value, "high_water": g.high_water}
                  for n, g in self.gauges.items()}
        hists: Dict[str, Any] = {n: h.summary()
                                 for n, h in self.histograms.items()}
        probes = self.probe_values()
        if nested:
            return {
                "counters": _nest(counters),
                "gauges": _nest(gauges),
                "histograms": _nest(hists),
                "probes": probes,
            }
        return {"counters": counters, "gauges": gauges,
                "histograms": hists, "probes": probes}

    def flat_values(self) -> Dict[str, float]:
        """Flat ``name -> number`` view (histograms expand per statistic)."""
        out: Dict[str, float] = dict(
            (n, c.value) for n, c in self.counters.items())
        for n, g in self.gauges.items():
            out[f"{n}.value"] = g.value
            out[f"{n}.high_water"] = g.high_water
        for n, h in self.histograms.items():
            for stat, v in h.summary().items():
                out[f"{n}.{stat}"] = v
        for group, values in self.probe_values().items():
            for key, v in values.items():
                out[f"{group}.{key}"] = v
        return out
