"""Observability: metrics registry + tracing + Chrome-trace timeline export.

Four pieces:

* :mod:`repro.obs.metrics` -- a cheap :class:`MetricsRegistry` (counters,
  gauges, log-bucketed histograms, pull probes) that every runtime layer
  reports into **when one is installed**;
* :mod:`repro.obs.trace` -- distributed tracing, the one per-call record:
  a client root span per call (function, protocol, transport, request /
  response bytes, serving channel), W3C-traceparent-style context
  propagated across the wire, client/server stage spans, head sampling;
* :mod:`repro.obs.timeline` -- exports trace spans and an engine's
  fault-trace events as Chrome ``trace_event`` JSON, viewable in Perfetto;
* :mod:`repro.obs.promtext` / :mod:`repro.obs.attribution` -- Prometheus
  text exposition of a registry, and the per-hint-tuple stage-latency
  report.

Install pattern ("zero overhead when absent", as for ``obs.trace``)::

    from repro import obs

    reg = obs.install()           # BEFORE building the testbed/engine
    ...  run the workload ...
    print(obs.pretty(reg.snapshot()))
    obs.uninstall()

THE INSTALL-ORDER RULE: components capture their instruments once, at
construction, from :func:`current`; with no registry installed the hot
path pays exactly one ``is not None`` attribute check per instrumented
site.  Installing a registry *after* components are built therefore has
no effect on them -- install first, or use the :func:`installed` context
manager around the whole scenario (the same rule applies to
``obs.trace.install``).  To catch this footgun, :func:`current` counts
how many lookups happened while no registry was installed, and
:func:`install` emits a one-time :class:`ObsInstallOrderWarning` when
that counter shows components were already built.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from typing import Any, Dict, Optional

from repro.obs import trace
from repro.obs.attribution import attribution_table, hint_attribution
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.promtext import render as promtext_render
from repro.obs.slo import SloSpec, SloWatchdog
from repro.obs.timeline import TimelineExporter, export_chrome_trace
from repro.obs.timeseries import (JsonlSink, MetricsSampler, RingBuffer,
                                  read_stream, summarize_stream)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "MetricsSampler",
    "ObsInstallOrderWarning",
    "RingBuffer",
    "SloSpec",
    "SloWatchdog",
    "TimelineExporter",
    "attribution_table",
    "current",
    "export_chrome_trace",
    "hint_attribution",
    "install",
    "installed",
    "pretty",
    "promtext_render",
    "read_stream",
    "summarize_stream",
    "trace",
    "uninstall",
]

_current: Optional[MetricsRegistry] = None

# Install-order footgun detection: every current() call that returns None
# is a component constructed *before* install() -- it will never report.
_missed_captures = 0
_warned_install_order = False


class ObsInstallOrderWarning(UserWarning):
    """A registry was installed after components had already captured
    ``None`` -- those components will not report into it."""


def install(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) the process-wide registry."""
    global _current, _missed_captures, _warned_install_order
    if _missed_captures and not _warned_install_order:
        _warned_install_order = True
        warnings.warn(
            f"obs.install() called after {_missed_captures} component(s) "
            "already captured instruments while no registry was installed; "
            "those components will record nothing. Install the registry "
            "BEFORE building the testbed/engine (see the repro.obs "
            "docstring).",
            ObsInstallOrderWarning,
            stacklevel=2,
        )
    _missed_captures = 0
    _current = registry if registry is not None else MetricsRegistry()
    return _current


def uninstall() -> None:
    """Remove the installed registry (metrics go back to zero-cost off)."""
    global _current
    _current = None


def current() -> Optional[MetricsRegistry]:
    """The installed registry, or None.  Components call this ONCE at
    construction and cache the result -- never per call."""
    if _current is None:
        global _missed_captures
        _missed_captures += 1
    return _current


@contextmanager
def installed(registry: Optional[MetricsRegistry] = None):
    """``with obs.installed() as reg:`` -- scoped install/uninstall."""
    reg = install(registry)
    try:
        yield reg
    finally:
        uninstall()


def pretty(snapshot: Dict[str, Any]) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot`."""
    return json.dumps(snapshot, indent=2, sort_keys=True, default=str)
