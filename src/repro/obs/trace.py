"""Distributed tracing: W3C-traceparent-style context over the RPC wire.

One :class:`TraceCollector` is installed process-wide (mirroring the
metrics registry's capture-once rule in :mod:`repro.obs`): the engine
captures it ONCE at construction, starts a trace per routed call, and
carries the context across the wire inside the RPC framing so server-side
spans are true children of the client call that caused them.

Context and wire format
-----------------------
A context is ``(trace_id, span_id, sampled)`` -- 16-byte trace id, 8-byte
span id, rendered as 32/16 lowercase hex chars (the W3C ``traceparent``
field widths).  On the wire it is the ``trace`` field of the frame header
(:mod:`repro.frame`), set once per *attempt* (so retries and failovers
each produce their own correctly-parented server span); the server that
receives the request reads it and opens the server span
(:func:`serve_one`).  No collector installed, or an unsampled+unfaulted
call, means NO trace field: the wire carries exactly the bytes it would
carry untraced.

Sampling
--------
Head-based: the decision is made once at call entry from the collector's
seeded RNG (``sample_rate``), so a run's sampled set is deterministic.
Faulted calls (retry, timeout, failover, breaker trip, channel error) are
ALWAYS committed regardless of the sampling decision -- the spans are
buffered per call and the keep/drop choice is made at call end, so a call
that faults after starting unsampled still yields a complete client-side
trace (server spans exist from the first post-fault attempt onward, since
the context goes on the wire once a call is known to be faulted).

Propagation inside the simulator
--------------------------------
The active call (client) or server request context rides on the simulator
process as ``Process.trace_ctx``; spawned processes inherit the spawner's
context, so detached NIC-chain processes attribute wire time ("network"
spans) to the RPC that posted the work.  With no collector installed every
``trace_ctx`` is ``None`` and instrumented sites pay one attribute check.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.frame import SpanContext

__all__ = [
    "ActiveCall",
    "ServerCall",
    "Span",
    "SpanContext",
    "TraceCollector",
    "active",
    "build_trees",
    "current",
    "format_trace",
    "install",
    "installed",
    "serve_one",
    "uninstall",
]


@dataclass
class Span:
    """One timed (or instantaneous) piece of a trace."""

    trace_id: str
    span_id: str
    parent_span_id: str         # "" for a trace root
    name: str
    kind: str                   # 'client' | 'server' | 'stage' | 'event'
    node: str                   # simulated node name ("" if unknown)
    start: float                # simulated seconds
    end: float
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def active(sim):
    """The trace context riding on the currently-running sim process."""
    p = sim.active_process
    return p.trace_ctx if p is not None else None


class _SpanSink:
    """Shared span-recording machinery for ActiveCall / ServerCall.

    Spans buffer locally until the owner decides the call's fate; stages
    parent under the innermost *open* stage (``open_stage``/``close_stage``
    keep a stack), falling back to the root span.  Recording after the call
    finished is legal -- detached NIC processes may complete an ACK after
    the RPC returned -- and routes straight to the collector iff the call
    was committed.
    """

    def __init__(self, collector: "TraceCollector", trace_id: str,
                 root_span_id: str, node: str, now_fn):
        self.collector = collector
        self.trace_id = trace_id
        self.root_span_id = root_span_id
        self.node = node
        self._now = now_fn
        self._buf: List[Span] = []
        self._stack: List[str] = []          # open span ids (root excluded)
        self._open_spans: Dict[str, Span] = {}
        self._done = False
        self._committed = False

    def now(self) -> float:
        return self._now()

    def _parent(self) -> str:
        return self._stack[-1] if self._stack else self.root_span_id

    def _emit(self, span: Span) -> None:
        if self._done:
            if self._committed:
                self.collector.commit([span])
            return
        self._buf.append(span)

    def stage(self, name: str, start: float, end: float, **attrs) -> Span:
        span = Span(self.trace_id, self.collector._new_span_id(),
                    self._parent(), name, "stage", self.node, start, end,
                    attrs=attrs)
        self._emit(span)
        return span

    def open_stage(self, name: str, start: float, **attrs) -> Span:
        """A stage whose children should nest under it (closed in LIFO
        order by :meth:`close_stage`); ``end`` is patched at close."""
        span = Span(self.trace_id, self.collector._new_span_id(),
                    self._parent(), name, "stage", self.node, start, start,
                    attrs=attrs)
        self._emit(span)
        self._stack.append(span.span_id)
        self._open_spans[span.span_id] = span
        return span

    def annotate(self, **attrs) -> None:
        """Merge attrs into the innermost open stage (or the root span).

        Lets deeper layers enrich the span a shallower layer opened --
        e.g. the KV handler stamps the op name and payload size onto the
        "handler" stage the Thrift processor is holding open.
        """
        if self._stack:
            span = self._open_spans.get(self._stack[-1])
            if span is not None:
                span.attrs.update(attrs)
                return
        self.root.attrs.update(attrs)

    def close_stage(self, end: float) -> None:
        if not self._stack:
            return
        span_id = self._stack.pop()
        span = self._open_spans.pop(span_id, None)
        if span is not None:
            span.end = end

    def event(self, name: str, ts: float, fault: bool = False,
              **attrs) -> Span:
        span = Span(self.trace_id, self.collector._new_span_id(),
                    self._parent(), name, "event", self.node, ts, ts,
                    attrs=attrs)
        self._emit(span)
        return span

    def _close_open_stages(self, end: float) -> None:
        while self._stack:
            self.close_stage(end)


class ActiveCall(_SpanSink):
    """Client-side trace of one engine call: root span + attempt spans.

    The engine opens one *attempt* span per retry-loop iteration (so
    retries and failovers read as sibling subtrees of one trace) and asks
    :meth:`context` for the wire context carrying that attempt's span id.
    """

    def __init__(self, collector, trace_id, root_span, node, now_fn,
                 sampled: bool):
        super().__init__(collector, trace_id, root_span.span_id, node,
                         now_fn)
        self.root = root_span
        self._buf.append(root_span)
        self.sampled = sampled
        self.faulted = False
        self._attempt: Optional[Span] = None
        self.attempts = 0

    # -- the engine drives these --------------------------------------------
    def begin_attempt(self, start: float, **attrs) -> Span:
        self.end_attempt(start)      # defensive: never two open attempts
        span = Span(self.trace_id, self.collector._new_span_id(),
                    self.root_span_id, f"attempt#{self.attempts}", "client",
                    self.node, start, start, attrs=attrs)
        self.attempts += 1
        self._emit(span)
        self._attempt = span
        self._stack.append(span.span_id)
        self._open_spans[span.span_id] = span
        return span

    def end_attempt(self, end: float, status: str = "ok", **attrs) -> None:
        if self._attempt is None:
            return
        # Pop stages left open by an abandoned attempt, then the attempt.
        while self._stack and self._stack[-1] != self._attempt.span_id:
            self.close_stage(end)
        self._attempt.status = status
        self._attempt.attrs.update(attrs)
        self.close_stage(end)
        self._attempt = None

    def context(self) -> Optional[SpanContext]:
        """Wire context for the current attempt (None when the call is
        neither sampled nor faulted: zero extra bytes on the wire)."""
        if not (self.sampled or self.faulted):
            return None
        span_id = (self._attempt.span_id if self._attempt is not None
                   else self.root_span_id)
        return SpanContext(self.trace_id, span_id, True)

    def event(self, name: str, ts: float, fault: bool = True,
              **attrs) -> Span:
        if fault:
            self.faulted = True
        return super().event(name, ts, fault=False, **attrs)

    def finish(self, end: float, status: str = "ok", **attrs) -> None:
        if self._done:
            return
        self.end_attempt(end, status="error" if status != "ok" else "ok")
        self._close_open_stages(end)
        self.root.end = end
        self.root.status = status
        self.root.attrs.update(attrs)
        self._done = True
        self._committed = self.sampled or self.faulted
        if self._committed:
            self.collector.commit(self._buf)
            self.collector.committed_calls += 1
        else:
            self.collector.dropped_calls += 1
        self._buf = []


class ServerCall(_SpanSink):
    """Server-side trace of one dispatched request.

    The root span's parent is the client attempt span id carried in the
    frame header -- the cross-node edge.  Server spans always commit: the
    context's presence already encodes the client's keep decision.
    """

    def __init__(self, collector, ctx: SpanContext, root_span, node,
                 now_fn):
        super().__init__(collector, ctx.trace_id, root_span.span_id, node,
                         now_fn)
        self.root = root_span
        self._buf.append(root_span)

    def finish(self, end: float, status: str = "ok", **attrs) -> None:
        if self._done:
            return
        self._close_open_stages(end)
        self.root.end = end
        self.root.status = status
        self.root.attrs.update(attrs)
        self._done = True
        self._committed = True
        self.collector.commit(self._buf)
        self._buf = []


class TraceCollector:
    """The process-wide span store + id generator.

    Deterministic: span/trace ids come from monotonic counters mixed with a
    seed-derived base, and the sampling RNG is seeded -- two runs of the
    same program produce byte-identical trace sets.
    """

    def __init__(self, sample_rate: float = 1.0, seed: int = 0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1]: {sample_rate}")
        self.sample_rate = sample_rate
        self.rng = random.Random(seed)
        self._trace_base = self.rng.getrandbits(96) << 32
        self._trace_seq = 0
        self._span_seq = 0
        self.spans: List[Span] = []
        self.started_calls = 0
        self.committed_calls = 0
        self.dropped_calls = 0

    # -- ids ----------------------------------------------------------------
    def _new_trace_id(self) -> str:
        self._trace_seq += 1
        return f"{self._trace_base + self._trace_seq:032x}"

    def _new_span_id(self) -> str:
        self._span_seq += 1
        return f"{self._span_seq:016x}"

    def _sample(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self.rng.random() < self.sample_rate

    # -- entry points --------------------------------------------------------
    def start_call(self, name: str, node: str, now_fn,
                   attrs: Optional[Dict[str, Any]] = None) -> ActiveCall:
        """Client side: open a trace for one engine call."""
        self.started_calls += 1
        trace_id = self._new_trace_id()
        start = now_fn()
        root = Span(trace_id, self._new_span_id(), "", name, "client", node,
                    start, start, attrs=dict(attrs or {}))
        return ActiveCall(self, trace_id, root, node, now_fn,
                          sampled=self._sample())

    def server_call(self, ctx: SpanContext, name: str, node: str, now_fn,
                    start: Optional[float] = None,
                    attrs: Optional[Dict[str, Any]] = None) -> ServerCall:
        """Server side: open the remote child span for a received context."""
        t = start if start is not None else now_fn()
        root = Span(ctx.trace_id, self._new_span_id(), ctx.span_id, name,
                    "server", node, t, t, attrs=dict(attrs or {}))
        return ServerCall(self, ctx, root, node, now_fn)

    def commit(self, spans: Iterable[Span]) -> None:
        self.spans.extend(spans)

    # -- reading -------------------------------------------------------------
    def traces(self) -> Dict[str, List[Span]]:
        """Committed spans grouped by trace id (insertion-ordered)."""
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def stats(self) -> Dict[str, int]:
        return {"started": self.started_calls,
                "committed": self.committed_calls,
                "dropped": self.dropped_calls,
                "spans": len(self.spans)}


def serve_one(trc: Optional[TraceCollector], sim, node: str, protocol: str,
              t_poll: float, ctx: Optional[SpanContext], dispatch, reply,
              dead):
    """Coroutine: one received request from poll to reply -- ``resp =
    yield from dispatch`` (the handler's coroutine, which alone holds the
    request), ``yield from reply(resp)`` -- as the server
    span of ``ctx``, the trace context its header carried (None for an
    untraced request, and always when ``trc`` is).  True once the reply is
    out; False if ``dead``, the connection's exceptions, was raised on the
    way.

    The span opens back at ``t_poll`` as a child of the client's attempt:
    stages ``poll``, ``dispatch`` (the span rides on the process as
    ``trace_ctx`` meanwhile) and ``reply``, with the attrs ``reply``
    returned, if any; the root ends ``dead_conn``, or as the dispatch left
    it (a shed one, ``rejected``).
    """
    srv = proc = prev_ctx = None
    if ctx is not None:
        srv = trc.server_call(ctx, "server", node, lambda: sim.now,
                              start=t_poll, attrs={"protocol": protocol})
        srv.stage("poll", t_poll, sim.now)
        proc = sim.active_process
        if proc is not None:
            prev_ctx = proc.trace_ctx
            proc.trace_ctx = srv
    try:
        if srv is not None:
            srv.open_stage("dispatch", sim.now)
        resp = yield from dispatch
        if srv is not None:
            srv.close_stage(sim.now)
        t_reply = sim.now
        attrs = yield from reply(resp)
        if srv is not None:
            srv.stage("reply", t_reply, sim.now, **(attrs or {}))
    except dead:
        if srv is not None:
            srv.finish(sim.now, status="dead_conn")
        return False
    finally:
        if proc is not None:
            proc.trace_ctx = prev_ctx
    if srv is not None:
        srv.finish(sim.now, status=srv.root.status)
    return True


# ---------------------------------------------------------------------------
# Tree building / rendering (shared by scripts/obs_dump.py and tests)
# ---------------------------------------------------------------------------

def build_trees(spans: Iterable[Span]
                ) -> Tuple[List[Span], Dict[str, List[Span]]]:
    """(roots, children-by-parent-span-id) for one trace's span list.

    A span whose parent is not in the set (e.g. a server span whose client
    side was never committed) is treated as a root.
    """
    spans = list(spans)
    ids = {s.span_id for s in spans}
    children: Dict[str, List[Span]] = {}
    roots: List[Span] = []
    for s in spans:
        if s.parent_span_id and s.parent_span_id in ids:
            children.setdefault(s.parent_span_id, []).append(s)
        else:
            roots.append(s)
    for kids in children.values():
        kids.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.start, s.span_id))
    return roots, children


def format_trace(spans: Iterable[Span], time_unit: float = 1e-6) -> str:
    """ASCII tree of one trace (times rendered in ``time_unit`` seconds,
    default microseconds)."""
    spans = list(spans)
    if not spans:
        return "(empty trace)"
    roots, children = build_trees(spans)
    t0 = min(s.start for s in spans)
    unit = "us" if time_unit == 1e-6 else f"x{time_unit:g}s"
    lines = [f"trace {spans[0].trace_id}  ({len(spans)} spans)"]

    def emit(span: Span, prefix: str, last: bool) -> None:
        branch = "`- " if last else "|- "
        rel, dur = (span.start - t0) / time_unit, span.duration / time_unit
        where = f" [{span.kind}@{span.node}]" if span.node else ""
        status = "" if span.status == "ok" else f" !{span.status}"
        detail = ""
        if span.attrs:
            keys = sorted(span.attrs)[:3]
            detail = " {" + ", ".join(
                f"{k}={span.attrs[k]}" for k in keys) + "}"
        lines.append(f"{prefix}{branch}{span.name}{where} "
                     f"+{rel:.2f}{unit} dur={dur:.2f}{unit}"
                     f"{status}{detail}")
        kids = children.get(span.span_id, [])
        ext = "   " if last else "|  "
        for i, kid in enumerate(kids):
            emit(kid, prefix + ext, i == len(kids) - 1)

    for i, root in enumerate(roots):
        emit(root, "", i == len(roots) - 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Process-wide install (same capture-once contract as the metrics registry)
# ---------------------------------------------------------------------------

_current: Optional[TraceCollector] = None


def install(sample_rate: float = 1.0, seed: int = 0,
            collector: Optional[TraceCollector] = None) -> TraceCollector:
    """Install (and return) the process-wide collector.  Install BEFORE
    building the testbed/engine: components capture it at construction."""
    global _current
    _current = collector if collector is not None else TraceCollector(
        sample_rate, seed)
    return _current


def uninstall() -> None:
    global _current
    _current = None


def current() -> Optional[TraceCollector]:
    """The installed collector, or None.  Components call this ONCE at
    construction and cache the result -- never per call."""
    return _current


@contextmanager
def installed(sample_rate: float = 1.0, seed: int = 0,
              collector: Optional[TraceCollector] = None):
    """``with trace.installed() as col:`` -- scoped install/uninstall."""
    col = install(sample_rate, seed, collector)
    try:
        yield col
    finally:
        uninstall()
