"""Hint attribution: which hint decision bought/cost how much, per stage.

HatRPC's hints pick the wire scheme (protocol, buffers, polling); this
report closes the loop by grouping traced stage timings by the *resolved
hint tuple* -- ``(perf_goal, payload-size class, concurrency, protocol)``
-- and emitting per-stage p50/p95 for each tuple.  Reading it answers
"what did declaring ``perf_goal = latency`` on 64-byte payloads do to the
network stage, versus the throughput default?".

Input is committed :class:`~repro.obs.trace.Span` objects (straight from a
``TraceCollector``, or round-tripped through the Chrome trace JSON via
:func:`spans_from_chrome`).  Client stage spans join their hint tuple from
the trace's client root span; server stage spans join through the shared
``trace_id`` -- the cross-node edge the wire envelope paid for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.sim.units import KiB

__all__ = [
    "HintKey",
    "StageStats",
    "WindowedAttribution",
    "attribution_table",
    "hint_attribution",
    "payload_class",
    "spans_from_chrome",
]

# Boundaries follow the protocol selector's own regimes: inline-able,
# eager-able, one RTT bounce buffer, rendezvous territory.
_PAYLOAD_CLASSES = ((256, "<=256B"), (4 * KiB, "<=4KiB"),
                    (64 * KiB, "<=64KiB"))


def payload_class(nbytes: Optional[float]) -> str:
    if nbytes is None:
        return "unknown"
    for bound, label in _PAYLOAD_CLASSES:
        if nbytes <= bound:
            return label
    return ">64KiB"


@dataclass(frozen=True)
class HintKey:
    """One resolved hint decision, as the selector saw it."""

    perf_goal: str
    payload: str               # payload-size class label
    concurrency: Any
    protocol: str

    def label(self) -> str:
        return (f"{self.perf_goal}/{self.payload}"
                f"/c={self.concurrency}/{self.protocol}")


@dataclass
class StageStats:
    """Exact (not bucketed) latency stats for one (hint tuple, stage)."""

    count: int
    p50: float
    p95: float
    mean: float
    total: float


def _percentile(sorted_vals: Sequence[float], p: float) -> float:
    """Nearest-rank percentile over the exact samples."""
    rank = max(1, -(-int(p * len(sorted_vals)) // 100))  # ceil(p/100 * n)
    rank = min(rank, len(sorted_vals))
    return sorted_vals[rank - 1]


def _stage_stats(samples: Iterable[float]) -> StageStats:
    vals = sorted(samples)
    total = sum(vals)
    return StageStats(count=len(vals), p50=_percentile(vals, 50),
                      p95=_percentile(vals, 95), mean=total / len(vals),
                      total=total)


def _key_from_root(root) -> HintKey:
    attrs = root.attrs
    nbytes = attrs.get("req_bytes", attrs.get("payload_size"))
    return HintKey(
        perf_goal=str(attrs.get("perf_goal", "unknown")),
        payload=payload_class(nbytes),
        concurrency=attrs.get("concurrency", "?"),
        protocol=str(attrs.get("protocol", "unknown")),
    )


def hint_attribution(spans: Iterable[Any]
                     ) -> Dict[HintKey, Dict[str, StageStats]]:
    """Group stage-span durations by hint tuple.

    Returns ``{hint_key: {stage_name: StageStats}}``.  Traces without a
    client root (orphaned server spans) are skipped -- there is no hint
    decision to attribute them to.
    """
    spans = list(spans)
    roots_by_trace: Dict[str, Any] = {}
    for s in spans:
        if s.kind == "client" and not s.parent_span_id:
            roots_by_trace.setdefault(s.trace_id, s)

    samples: Dict[Tuple[HintKey, str], List[float]] = {}
    for s in spans:
        # Zero-duration stages stay in: the simulator charges no time for
        # e.g. in-memory serialization, and an honest 0.00 row beats a
        # missing one.
        if s.kind != "stage":
            continue
        root = roots_by_trace.get(s.trace_id)
        if root is None:
            continue
        key = _key_from_root(root)
        samples.setdefault((key, s.name), []).append(s.end - s.start)

    out: Dict[HintKey, Dict[str, StageStats]] = {}
    for (key, stage), vals in samples.items():
        out.setdefault(key, {})[stage] = _stage_stats(vals)
    return out


class WindowedAttribution:
    """Incremental, ring-buffered stage stats -- the live feed behind the
    online tuner.

    :func:`hint_attribution` is batch: it wants every committed span at
    once, which an online consumer cannot afford.  This class accepts one
    sample at a time (``observe(key, stage, value)``), keeps only the most
    recent ``window`` samples per (key, stage), and serves exact
    :class:`StageStats` over that window on demand.  Keys are free-form
    hashables -- the tuner keys by ``(function, payload_class, choice)``.

    Windowing is the point, not a memory bound: a tuner must weigh *recent*
    behavior, and a long-gone phase polluting the percentiles would stall
    every future decision.
    """

    def __init__(self, window: int = 128):
        if window < 1:
            raise ValueError(f"window must be >= 1: {window}")
        self.window = window
        self._samples: Dict[Tuple[Any, str], Deque[float]] = {}

    def observe(self, key: Any, stage: str, value: float) -> None:
        dq = self._samples.get((key, stage))
        if dq is None:
            dq = deque(maxlen=self.window)
            self._samples[(key, stage)] = dq
        dq.append(value)

    def stats(self, key: Any, stage: str) -> Optional[StageStats]:
        """Exact stats over the current window, or None if no samples."""
        dq = self._samples.get((key, stage))
        return _stage_stats(dq) if dq else None


# Stable presentation order for the stage taxonomy; anything else
# (cq_wait, backoff, connect, ...) follows alphabetically.
_STAGE_ORDER = ["serialize", "hint_select", "post", "network", "complete",
                "deserialize", "poll", "dispatch", "handler", "backend",
                "reply"]


def _stage_sort_key(stage: str) -> Tuple[int, str]:
    try:
        return (_STAGE_ORDER.index(stage), stage)
    except ValueError:
        return (len(_STAGE_ORDER), stage)


def attribution_table(spans: Iterable[Any], time_unit: float = 1e-6,
                      unit_label: str = "us") -> str:
    """The human-readable per-hint-tuple stage table."""
    report = hint_attribution(spans)
    if not report:
        return "(no attributable stage spans)"
    header = (f"{'hint tuple':44s} {'stage':12s} {'n':>5s} "
              f"{'p50(' + unit_label + ')':>10s} "
              f"{'p95(' + unit_label + ')':>10s} "
              f"{'mean(' + unit_label + ')':>11s}")
    lines = [header, "-" * len(header)]
    for key in sorted(report, key=lambda k: k.label()):
        label = key.label()
        stages = report[key]
        for stage in sorted(stages, key=_stage_sort_key):
            st = stages[stage]
            lines.append(
                f"{label:44s} {stage:12s} {st.count:>5d} "
                f"{st.p50 / time_unit:>10.2f} {st.p95 / time_unit:>10.2f} "
                f"{st.mean / time_unit:>11.2f}")
            label = ""                      # print the tuple once per block
    return "\n".join(lines)


@dataclass
class _LoadedSpan:
    """Span reconstructed from Chrome trace JSON (duck-types Span)."""

    trace_id: str
    span_id: str
    parent_span_id: str
    name: str
    kind: str
    node: str
    start: float
    end: float
    status: str
    attrs: Dict[str, Any]

    @property
    def duration(self) -> float:
        return self.end - self.start


def spans_from_chrome(doc: Mapping[str, Any]) -> List[_LoadedSpan]:
    """Recover trace spans from Chrome ``trace_event`` JSON produced by
    :func:`repro.obs.timeline.TimelineExporter.add_trace_spans` (events
    embed the span identity in ``args``).  A document of the wrong shape
    raises ``ValueError``."""
    events = doc.get("traceEvents", []) if isinstance(doc, Mapping) else None
    if not isinstance(events, list):
        raise ValueError("not a trace_event document: expected an object "
                         "with a traceEvents list")
    out: List[_LoadedSpan] = []
    for ev in events:
        if not (isinstance(ev, dict)
                and isinstance(ev.get("args") or {}, dict)):
            raise ValueError(f"malformed trace event: {ev!r}")
        args = ev.get("args") or {}
        if "trace_id" not in args or ev.get("ph") not in ("X", "i"):
            continue
        start, dur = ev.get("ts", 0), ev.get("dur", 0)
        if not (isinstance(start, (int, float))
                and isinstance(dur, (int, float))):
            raise ValueError(f"malformed trace event: {ev!r}")
        start, dur = start / 1e6, dur / 1e6
        attrs = {k: v for k, v in args.items()
                 if k not in ("trace_id", "span_id", "parent_span_id",
                              "kind", "status", "node")}
        out.append(_LoadedSpan(
            trace_id=str(args["trace_id"]),
            span_id=str(args.get("span_id", "")),
            parent_span_id=str(args.get("parent_span_id", "")),
            name=str(ev.get("name", "")),
            kind=str(args.get("kind", "stage")),
            node=str(args.get("node", "")),
            start=start,
            end=start + dur,
            status=str(args.get("status", "ok")),
            attrs=attrs,
        ))
    return out
