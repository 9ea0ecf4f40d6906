"""Timeline export: trace spans + sim-clock events -> Chrome ``trace_event``.

The exporter turns what the runtime already records (the
:mod:`repro.obs.trace` collector's spans, the engine's replayable
``fault_trace``) into the Chrome/Perfetto ``trace_event`` JSON format
(load the file at https://ui.perfetto.dev or ``chrome://tracing``):

* one *complete* event (``ph: "X"``) per call / attempt / stage span --
  process (``pid``) = simulated node, thread (``tid``) = trace, args =
  the span's identity and attributes (protocol, transport, sizes);
* one *instant* event (``ph: "i"``) per fault-trace entry (retries,
  failovers, breaker transitions, timeouts), on the engine's node.

A phased run's time series are not timeline events: they live in the
sampler's JSONL stream (:mod:`repro.obs.timeseries`).

Timestamps: the simulator clock is seconds; ``trace_event`` wants
microseconds, so every ``ts``/``dur`` is scaled by 1e6.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["TimelineExporter", "export_chrome_trace"]

#: sim seconds -> trace_event microseconds
_US = 1e6


class TimelineExporter:
    """Accumulates trace events; write with :meth:`write`."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []
        self._named: set = set()
        self._node_pids: Dict[str, int] = {}

    def pid_for(self, node_name: str) -> int:
        """Stable pid for a simulated node (1-based, first come first
        served) so multi-node runs land on distinct Perfetto process
        tracks instead of all collapsing onto ``pid=0``."""
        pid = self._node_pids.get(node_name)
        if pid is None:
            pid = self._node_pids[node_name] = len(self._node_pids) + 1
            self.name_process(pid, f"node {node_name}")
        return pid

    # -- primitives --------------------------------------------------------
    def add_complete(self, name: str, start: float, duration: float,
                     pid: int = 0, tid: int = 0, cat: str = "rpc",
                     args: Optional[Dict[str, Any]] = None) -> None:
        """One span: ``start``/``duration`` in simulated seconds."""
        ev: Dict[str, Any] = {
            "name": name, "cat": cat, "ph": "X",
            "ts": start * _US, "dur": duration * _US,
            "pid": pid, "tid": tid,
        }
        if args:
            ev["args"] = args
        self.events.append(ev)

    def add_instant(self, name: str, ts: float, pid: int = 0, tid: int = 0,
                    cat: str = "event", scope: str = "t",
                    args: Optional[Dict[str, Any]] = None) -> None:
        ev: Dict[str, Any] = {
            "name": name, "cat": cat, "ph": "i", "s": scope,
            "ts": ts * _US, "pid": pid, "tid": tid,
        }
        if args:
            ev["args"] = args
        self.events.append(ev)

    def name_process(self, pid: int, name: str) -> None:
        """Perfetto metadata: label a pid lane."""
        key = ("process", pid)
        if key in self._named:
            return
        self._named.add(key)
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        key = ("thread", pid, tid)
        if key in self._named:
            return
        self._named.add(key)
        self.events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name},
        })

    # -- runtime adapters --------------------------------------------------
    def add_fault_trace(self, trace: Iterable[Tuple], pid: int = 0) -> int:
        """Ingest engine ``fault_trace`` tuples
        ``(sim_time, kind, function, channel, detail)`` as instants."""
        n = 0
        for t, kind, fn, channel, detail in trace:
            tid = channel if channel >= 0 else 999
            self.add_instant(kind, t, pid=pid, tid=tid, cat="fault",
                             args={"function": fn, "channel": channel,
                                   "detail": detail})
            n += 1
        return n

    def add_trace_spans(self, spans: Iterable[Any]) -> int:
        """Ingest distributed-trace :class:`~repro.obs.trace.Span` objects.

        Each simulated node becomes its own Perfetto process (via
        :meth:`pid_for`); within a node, each trace gets its own thread
        lane so Perfetto's containment rule nests stage spans under call
        spans.  The span identity (trace/span/parent ids, kind, status)
        rides in ``args`` -- :func:`repro.obs.attribution.spans_from_chrome`
        reconstructs the tree from the file alone.  Returns the number of
        events added.
        """
        trace_tids: Dict[str, int] = {}
        n = 0
        for span in spans:
            pid = self.pid_for(span.node or "?")
            tid = trace_tids.setdefault(span.trace_id, len(trace_tids) + 1)
            self.name_thread(pid, tid, f"trace {span.trace_id[-8:]}")
            args = {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_span_id": span.parent_span_id,
                "kind": span.kind,
                "node": span.node,
                "status": span.status,
            }
            args.update(span.attrs)
            if span.kind == "event":
                self.add_instant(span.name, span.start, pid=pid, tid=tid,
                                 cat="fault", args=args)
            else:
                self.add_complete(span.name, span.start, span.duration,
                                  pid=pid, tid=tid, cat=span.kind,
                                  args=args)
            n += 1
        return n

    # -- output ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"traceEvents": list(self.events),
                "displayTimeUnit": "ns"}

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)


def export_chrome_trace(path, collector=None,
                        engine=None) -> TimelineExporter:
    """One-call export: trace spans and/or fault events -> Perfetto JSON
    at ``path``.

    Pass a distributed-trace ``collector`` (its spans nest per node and
    trace) and/or an ``engine`` (its ``.fault_trace`` lands as instants on
    the engine's node, beside that node's spans).  Returns the exporter
    (with ``path`` already written).
    """
    ex = TimelineExporter()
    if collector is not None:
        ex.add_trace_spans(collector.spans)
    if engine is not None:
        ex.add_fault_trace(engine.fault_trace,
                           pid=ex.pid_for(engine.node.name))
    ex.write(path)
    return ex
