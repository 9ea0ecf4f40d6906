"""Continuous telemetry: sim-clock sampling of a MetricsRegistry.

Every instrument in :class:`~repro.obs.metrics.MetricsRegistry` is a
*cumulative* aggregate -- perfect for end-of-run snapshots, blind to
anything that happens mid-run.  This module adds the time axis:

* :class:`MetricsSampler` -- a simulator process that every ``interval``
  simulated seconds reads the registry into one flat ``{series: value}``
  dict, writes it to the sink and hands it to the ``on_sample`` hooks:

  - counters become **windowed rates** (``<name>.rate``, delta/dt, with a
    restart guard: a counter that went *backwards* is treated as reset and
    its current value is the whole window's delta);
  - gauges are sampled as-is (``<name>``);
  - histograms become **per-interval distributions**: the bucket-count
    delta between consecutive samples answers ``<name>.p50/.p95/.p99``
    (nearest-rank over the interval's own samples -- not the lifetime
    percentile), plus ``<name>.rate`` and ``<name>.mean``;
  - probes are pulled fresh **every tick** (``<group>.<key>``), so
    probe-backed values are never stale by more than one interval;

* :class:`JsonlSink` -- a line-buffered JSONL stream (one JSON object per
  sample/event) that ``scripts/obs_dump.py --series STREAM --follow`` can
  tail while the run is still going, and :func:`read_stream` /
  :func:`summarize_stream` parse back.

The stream is the run's only record: the sampler keeps no series of its
own, so a consumer either hooks ``on_sample`` while the run goes or reads
the JSONL afterwards.

Cost discipline: nothing here is wired into any hot path.  A run that
never constructs a sampler pays zero -- the same opt-in contract as the
registry itself.  Sampling is read-only bookkeeping at discrete instants:
it inserts simulator events but consumes no simulated time, so a sampled
run's workload timing is byte-identical to an unsampled one.
"""

from __future__ import annotations

import json
import math
from typing import (Any, Callable, Dict, IO, List, Optional, Sequence,
                    Tuple, Union)

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.sim.core import Interrupt, Simulator

__all__ = [
    "JsonlSink",
    "MetricsSampler",
    "read_stream",
    "summarize_stream",
]


class JsonlSink:
    """Streaming JSONL writer: one compact JSON object per line.

    Flushes after every record so an external tailer
    (``scripts/obs_dump.py --follow``) sees samples as they land, not at
    close.
    Accepts a path or an open file-ish object (anything with ``write``).
    """

    def __init__(self, target: Union[str, IO[str]]):
        if hasattr(target, "write"):
            self._f: IO[str] = target           # type: ignore[assignment]
            self._owns = False
        else:
            self._f = open(target, "w")
            self._owns = True

    def write(self, record: Dict[str, Any]) -> None:
        self._f.write(json.dumps(record, separators=(",", ":"),
                                 sort_keys=True, default=str))
        self._f.write("\n")
        self._f.flush()

    def close(self) -> None:
        if self._owns:
            self._f.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_stream(path: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Parse a stream JSONL file back into its records (blank lines and
    trailing partial lines -- a tailer racing the writer -- are skipped)."""
    if hasattr(path, "read"):
        lines = path.read().splitlines()        # type: ignore[union-attr]
    else:
        with open(path) as f:
            lines = f.read().splitlines()
    out: List[Dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            continue                            # partial final line
        if isinstance(rec, dict):
            out.append(rec)
    return out


def _number(value: Any, what: str) -> float:
    if not isinstance(value, (int, float)):
        raise ValueError(f"{what} is not a number: {value!r}")
    return float(value)


def _object(value: Any, what: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{what} is not an object: {value!r}")
    return value


_OPT_STR = (str, type(None))


def summarize_stream(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Digest a stream: per-series stats, phases seen, events, SLO verdicts.

    The backend of ``scripts/obs_dump.py --series``: everything is
    derived from the records alone, so any tool holding the JSONL can
    reconstruct the run's live view after the fact.  A record of the
    wrong shape (a ``t`` or metric value that is not a number, ``tags`` or
    ``metrics`` that are not objects, an event ``kind``, ``phase`` or
    ``slo`` that is not a string) raises ``ValueError``.
    """
    series: Dict[str, Dict[str, Any]] = {}
    phases: List[Tuple[float, str]] = []
    events: List[Dict[str, Any]] = []
    slo: Dict[str, Dict[str, Any]] = {}
    n_samples = 0
    last_t = 0.0
    last_phase: Optional[str] = None
    for rec in records:
        t = _number(rec.get("t", 0.0), "t")
        last_t = max(last_t, t)
        kind = rec.get("type")
        if kind == "sample":
            n_samples += 1
            phase = _object(rec.get("tags"), "tags").get("phase")
            if not isinstance(phase, _OPT_STR):
                raise ValueError(f"phase tag is not a string: {phase!r}")
            # 'done' is terminal: the final flush sample still carries the
            # last window's tag, which must not reopen the run.
            if (phase is not None and phase != last_phase
                    and last_phase != "done"):
                phases.append((t, phase))
                last_phase = phase
            for name, value in _object(rec.get("metrics"),
                                       "metrics").items():
                st = series.get(name)
                if st is None:
                    st = series[name] = {
                        "n": 0, "min": math.inf, "max": -math.inf,
                        "sum": 0.0, "last": None, "last_t": None,
                        "values": [],
                    }
                v = _number(value, f"metric {name}")
                st["n"] += 1
                st["min"] = min(st["min"], v)
                st["max"] = max(st["max"], v)
                st["sum"] += v
                st["last"] = v
                st["last_t"] = t
                st["values"].append(v)
        elif kind == "event":
            ekind = rec.get("kind")
            if not (isinstance(ekind, str)
                    and isinstance(rec.get("phase"), _OPT_STR)
                    and isinstance(rec.get("slo"), _OPT_STR)):
                raise ValueError(f"event kind, phase or slo is not a "
                                 f"string: {rec!r}")
            events.append(rec)
            if ekind == "phase" and rec.get("phase") is not None:
                if rec["phase"] != last_phase:
                    phases.append((t, rec["phase"]))
                    last_phase = rec["phase"]
            elif ekind in ("slo_violation", "slo_recovered"):
                name = rec.get("slo", "?")
                st = slo.setdefault(name, {"violations": 0, "recovered": 0,
                                           "last": None})
                key = ("violations" if ekind == "slo_violation"
                       else "recovered")
                st[key] += 1
                st["last"] = rec
    for st in series.values():
        st["mean"] = st["sum"] / st["n"] if st["n"] else 0.0
    return {
        "n_samples": n_samples,
        "t_end": last_t,
        "phase": last_phase,
        "phases": phases,
        "series": series,
        "events": events,
        "slo": slo,
    }


def _delta_buckets(cur: Dict[int, int],
                   prev: Dict[int, int]) -> Optional[Dict[int, int]]:
    """Per-bucket count delta, or None when the histogram restarted (any
    bucket went backwards -- the caller then treats ``cur`` as the whole
    window's worth)."""
    out: Dict[int, int] = {}
    for idx, n in cur.items():
        d = n - prev.get(idx, 0)
        if d < 0:
            return None
        if d:
            out[idx] = d
    return out


def _bucket_percentile(hist: Histogram, buckets: Dict[int, int],
                       count: int, p: float) -> float:
    """Nearest-rank percentile over a bucket-count delta (upper bucket
    edge, same one-bucket-of-relative-error contract as the registry
    histogram's lifetime percentile)."""
    rank = max(1, math.ceil(p / 100 * count))
    seen = 0
    for idx in sorted(buckets):
        seen += buckets[idx]
        if seen >= rank:
            return hist.bucket_bound(idx)
    raise AssertionError("delta bucket counts do not cover count")


class MetricsSampler:
    """Periodic (sim-clock) sampling of a registry into a stream.

    Lifecycle::

        sampler = MetricsSampler(sim, registry, interval=50 * us,
                                 sink=JsonlSink("stream.jsonl"))
        sampler.start()          # primes counter/histogram snapshots
        ... run the workload ...
        sampler.stop()           # takes one final sample, then halts

    ``tags`` is a mutable dict stamped onto every sample record (the
    phased harness keeps ``tags["phase"]`` current); ``on_sample`` hooks
    (``fn(t, metrics, tags)``) run after each sample lands -- the SLO
    watchdog, the resize trigger and the harness's shed-wave watcher
    attach there.  ``events`` keeps every annotation written.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry,
                 interval: float, sink: Optional[JsonlSink] = None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.sink = sink
        self.tags: Dict[str, Any] = {}
        self.on_sample: List[Callable[[float, Dict[str, float],
                                       Dict[str, Any]], None]] = []
        self.events: List[Dict[str, Any]] = []
        self._proc = None
        self._running = False
        self._last_t: Optional[float] = None
        self._prev_counters: Dict[str, float] = {}
        #: name -> (count, total, buckets copy) at the previous sample
        self._prev_hists: Dict[str, Tuple[int, float, Dict[int, int]]] = {}
        #: histogram name -> times its count went backwards (restarts)
        self._hist_restarts: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "MetricsSampler":
        """Prime the delta baselines and spawn the sampling process."""
        if self._running:
            raise RuntimeError("sampler already started")
        self._running = True
        self._prime()
        if self.sink is not None:
            self.sink.write({"type": "meta", "t": self.sim.now,
                             "interval": self.interval,
                             "tags": dict(self.tags)})
        self._proc = self.sim.process(self._loop(), name="metrics-sampler")
        return self

    def stop(self, final_sample: bool = True) -> None:
        """Halt the periodic process (idempotent).  By default one last
        sample is taken first, so the tail window is never lost."""
        if not self._running:
            return
        if final_sample and self.sim.now != self._last_t:
            self.sample_once()
        self._running = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("sampler stopped")
        self._proc = None

    def _loop(self):
        try:
            while self._running:
                yield self.sim.timeout(self.interval)
                if not self._running:       # stopped while sleeping
                    return
                self.sample_once()
        except Interrupt:
            return

    # -- sampling ------------------------------------------------------------
    def _prime(self) -> None:
        """Snapshot counter/histogram baselines without emitting points, so
        the first sample reports true *window* deltas instead of charging
        all pre-start history to one interval."""
        self._last_t = self.sim.now
        for name, c in self.registry.counters.items():
            self._prev_counters[name] = c.value
        for name, h in self.registry.histograms.items():
            self._prev_hists[name] = (h.count, h.total, dict(h.buckets))

    def sample_once(self) -> Dict[str, float]:
        """Take one sample now; returns the flat ``{series: value}`` dict."""
        t = self.sim.now
        dt = t - (self._last_t if self._last_t is not None else t)
        if dt <= 0:
            dt = self.interval                 # degenerate same-instant call
        out: Dict[str, float] = {}
        reg = self.registry
        for name, c in reg.counters.items():
            prev = self._prev_counters.get(name, 0.0)
            cur = c.value
            delta = cur - prev if cur >= prev else cur   # restart guard
            self._prev_counters[name] = cur
            out[f"{name}.rate"] = delta / dt
        for name, g in reg.gauges.items():
            out[name] = g.value
        for name, h in reg.histograms.items():
            prev = self._prev_hists.get(name)
            if prev is None:
                prev = (0, 0.0, {})
            pcount, ptotal, pbuckets = prev
            dbuckets = (_delta_buckets(h.buckets, pbuckets)
                        if h.count >= pcount else None)
            if dbuckets is None:               # histogram restarted
                # The pre-restart tail of the window is unrecoverable; the
                # post-restart state stands in for the delta.  Say so in
                # the stream instead of passing the splice off as a clean
                # window: an annotation marks the instant, and a
                # cumulative ``<name>.restarts`` series makes the count
                # greppable next to the series it taints.
                dcount, dtotal = h.count, h.total
                dbuckets = dict(h.buckets)
                self._hist_restarts[name] = \
                    self._hist_restarts.get(name, 0) + 1
                self.event("histogram_restart", name=name,
                           prev_count=pcount, count=h.count)
            else:
                dcount, dtotal = h.count - pcount, h.total - ptotal
            self._prev_hists[name] = (h.count, h.total, dict(h.buckets))
            out[f"{name}.rate"] = dcount / dt
            if name in self._hist_restarts:
                out[f"{name}.restarts"] = float(self._hist_restarts[name])
            if dcount > 0:
                out[f"{name}.mean"] = dtotal / dcount
                for p in (50, 95, 99):
                    out[f"{name}.p{p}"] = _bucket_percentile(
                        h, dbuckets, dcount, p)
        # Probes are pulled fresh on every tick -- a probe-backed value in
        # the stream is at most one interval old, never a stale capture.
        for group, values in reg.probe_values().items():
            for key, v in values.items():
                out[f"{group}.{key}"] = v
        self._last_t = t
        if self.sink is not None:
            self.sink.write({"type": "sample", "t": t,
                             "tags": dict(self.tags), "metrics": out})
        for hook in self.on_sample:
            hook(t, out, self.tags)
        return out

    # -- annotations ---------------------------------------------------------
    def event(self, kind: str, t: Optional[float] = None,
              **attrs: Any) -> Dict[str, Any]:
        """Append one annotation event to the stream (and keep it)."""
        rec: Dict[str, Any] = {"type": "event", "kind": kind,
                               "t": self.sim.now if t is None else t}
        rec.update(attrs)
        self.events.append(rec)
        if self.sink is not None:
            self.sink.write(rec)
        return rec
