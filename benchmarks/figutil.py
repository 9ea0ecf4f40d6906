"""Shared helpers for the paper-figure benchmarks.

Every benchmark runs the corresponding simulated experiment once under
``benchmark.pedantic`` (real time measures simulator cost; the *reproduced
metrics* are simulated and land in ``benchmark.extra_info`` and on stdout
as paper-style rows).

Scale: set ``REPRO_BENCH_SCALE=full`` for the paper's full parameter grids;
the default ``small`` grid keeps the whole suite in a few minutes.

Every figure also emits a machine-readable :class:`~repro.bench.BenchRecord`
via :func:`emit_bench`; the process-wide sink flushes them to
``BENCH_<scale>.json`` (or ``$REPRO_BENCH_OUT``) at exit, which is what
``scripts/check_bench_regression.py`` compares with the committed ledger,
``BENCH_BASELINE.json``, in CI.  A bench on the phased harness records
each number once: a MEASUREMENT value lives in its phase record, and its
summary record keeps only what no phase record holds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.bench.report import SINK, BenchRecord, bench_scale, metric
from repro.sim.units import us

__all__ = ["SCALE", "emit_bench", "fmt_rows", "is_full", "kops",
           "lat_metric", "pct_gain", "tput_metric", "usec"]

SCALE = bench_scale()


def lat_metric(seconds: float) -> Dict[str, object]:
    """A latency metric in microseconds."""
    return metric(round(seconds / us, 3), unit="us")


def tput_metric(ops_per_sec: float) -> Dict[str, object]:
    """A throughput metric in kops/s."""
    return metric(round(ops_per_sec / 1e3, 2), unit="kops")


def emit_bench(figure: str, name: str, metrics: Dict[str, Dict[str, object]],
               config: Optional[Dict[str, object]] = None,
               **meta: object) -> BenchRecord:
    """Queue one benchmark record on the process-wide sink.

    ``metrics`` values come from :func:`lat_metric` / :func:`tput_metric` /
    :func:`repro.bench.metric`.  The sink flushes at interpreter exit (or
    explicitly from ``scripts/run_all_figures.py``).
    """
    rec = BenchRecord(figure=figure, name=name, scale=SCALE,
                      config=dict(config or {}), metrics=dict(metrics),
                      meta=dict(meta))
    SINK.add(rec)
    return rec


def is_full() -> bool:
    return SCALE == "full"


def usec(seconds: float) -> str:
    return f"{seconds / us:9.2f}us"


def kops(ops_per_sec: float) -> str:
    return f"{ops_per_sec / 1e3:9.1f}k"


def pct_gain(base: float, improved: float) -> str:
    """Relative improvement of `improved` over `base` (both 'smaller=better'
    or pass throughputs swapped)."""
    if base <= 0:
        return "   n/a"
    return f"{(base - improved) / base * 100:+6.1f}%"


def fmt_rows(title: str, header: List[str], rows: Iterable[List[str]]) -> str:
    lines = [f"\n== {title} =="]
    widths = [max(len(h), 12) for h in header]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    out = "\n".join(lines)
    print(out)
    return out
