#!/usr/bin/env python
"""Render a recorded trace file or a phased run's sample stream.

    python scripts/obs_dump.py TRACE.json
    python scripts/obs_dump.py TRACE.json --metrics METRICS.prom --max-traces 5
    python scripts/obs_dump.py --series STREAM.jsonl
    python scripts/obs_dump.py --series STREAM.jsonl --follow \\
        --watch bench.ops.rate --watch bench.op_latency.get.p99

``TRACE.json`` is the Chrome ``trace_event`` file written by
``obs.export_chrome_trace(..., collector=...)`` (e.g. by
``examples/quickstart.py --trace``).  Span identity (trace/span/parent ids)
rides in each event's ``args``, so the call trees -- client call spans with
their server-side children -- are reconstructed from the file alone, and
a hint-attribution table follows them.

``--metrics FILE`` additionally prints a Prometheus text-format metrics
file (written by ``obs.promtext_render``) verbatim, so one invocation shows
both pillars of a run's observability output.

``--series STREAM.jsonl`` renders the JSONL stream a
:class:`repro.obs.timeseries.MetricsSampler` writes (e.g.
``benchmarks/test_phased_ycsb.py`` with ``REPRO_STREAM_OUT`` set): the
current phase and the phase trail, every sampled series (count / min /
mean / max / last), a sparkline per watched series (``--watch``,
repeatable), annotation counts and the SLO verdicts.  A trace file is not
required in this mode.  ``--follow`` re-reads the stream every half
second and redraws the same view until the run's ``done`` phase event
lands (or Ctrl-C); the reader skips a partial final line, so it works
while the benchmark is still writing.

Exit codes: 0 ok, 2 usage/IO error or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.attribution import attribution_table, spans_from_chrome  # noqa: E402
from repro.obs.timeseries import read_stream, summarize_stream  # noqa: E402
from repro.obs.trace import format_trace  # noqa: E402

DEFAULT_WATCH = ["bench.ops.rate", "bench.op_latency.get.p99",
                 "admission.rejected.rate"]
#: wall seconds between re-reads under --follow
FOLLOW_INTERVAL_S = 0.5
#: sparkline width: the last this many samples of a watched series
SPARK_WIDTH = 40
_BLOCKS = " ▁▂▃▄▅▆▇█"
_US = 1e-6


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline of the last ``SPARK_WIDTH`` values."""
    tail = list(values)[-SPARK_WIDTH:]
    if not tail:
        return ""
    lo, hi = min(tail), max(tail)
    span = hi - lo
    if span <= 0:
        return _BLOCKS[1] * len(tail)
    out = []
    for v in tail:
        idx = 1 + int((v - lo) / span * (len(_BLOCKS) - 2))
        out.append(_BLOCKS[min(idx, len(_BLOCKS) - 1)])
    return "".join(out)


def render_stream(path: str, digest: Dict[str, Any],
                  watch: Sequence[str]) -> str:
    """The text view of one ``summarize_stream`` digest (pure function)."""
    lines: List[str] = [
        f"{path}: {digest['n_samples']} samples, "
        f"{len(digest['series'])} series, {len(digest['events'])} events, "
        f"t_end={digest['t_end'] / _US:.1f}us, "
        f"phase={digest['phase'] or '?'}"]

    phases = digest["phases"]
    if phases:
        lines += ["", "phases: " + " > ".join(p for _, p in phases)]
        lines += [f"  {t / _US:>12.1f}us  {p}" for t, p in phases]

    lines += ["", "series (value stats over the sampled window):",
              f"  {'name':<44} {'n':>5} {'min':>12} {'mean':>12} "
              f"{'max':>12} {'last':>12}"]
    for name in sorted(digest["series"]):
        st = digest["series"][name]
        lines.append(f"  {name:<44} {st['n']:>5} {st['min']:>12.4g} "
                     f"{st['mean']:>12.4g} {st['max']:>12.4g} "
                     f"{st['last']:>12.4g}")

    lines += ["", f"watched (last {SPARK_WIDTH} samples):"]
    for name in watch:
        st = digest["series"].get(name)
        if st is None:
            lines.append(f"  {name:<44} (no data)")
        else:
            lines.append(f"  {name:<44} {st['last']:>12.4g}  "
                         f"{sparkline(st['values'])}")

    kinds: Dict[str, int] = {}
    for e in digest["events"]:
        if e["kind"] != "phase":
            kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
    if kinds:
        lines += ["", "events:"]
        lines += [f"  {k:<32} x{kinds[k]}" for k in sorted(kinds)]

    if not digest["slo"]:
        lines += ["", "SLO verdicts: none recorded"]
        return "\n".join(lines)
    lines += ["", "SLO verdicts:"]
    for name in sorted(digest["slo"]):
        st = digest["slo"][name]
        verdict = "FAIL" if st["violations"] else "PASS"
        last = st["last"]
        thr = last.get("threshold")
        if isinstance(thr, (int, float)):
            thr = f"{thr:.4g}"
        lines.append(f"  {name:<32} {verdict}  "
                     f"({st['violations']} violation(s), "
                     f"{st['recovered']} recovered; last {last['kind']} at "
                     f"{last.get('t', 0.0) / _US:.1f}us, "
                     f"{last.get('metric')} vs {thr})")
    return "\n".join(lines)


def _dump_series(path: str, follow: bool, watch: Sequence[str]) -> int:
    clear = "\x1b[2J\x1b[H" if follow and sys.stdout.isatty() else ""
    while True:
        try:
            digest = summarize_stream(read_stream(path))
        except OSError as exc:
            if not follow:
                print(f"error: cannot read {path}: {exc}", file=sys.stderr)
                return 2
            digest = summarize_stream([])     # not written yet: keep waiting
        except ValueError as exc:
            print(f"error: malformed stream {path}: {exc}", file=sys.stderr)
            return 2
        frame = render_stream(path, digest, watch)
        if not follow:
            print(frame)
            return 0
        print(clear + frame if clear else frame + "\n" + "-" * 72,
              flush=True)
        if digest["phase"] == "done":
            return 0
        try:
            time.sleep(FOLLOW_INTERVAL_S)
        except KeyboardInterrupt:
            return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", metavar="TRACE.json", nargs="?", default=None,
                    help="Chrome trace_event JSON with embedded span ids")
    ap.add_argument("--metrics", metavar="FILE", default=None,
                    help="also print this Prometheus text metrics file")
    ap.add_argument("--max-traces", type=int, default=10,
                    help="max trace trees to render (default: %(default)s)")
    ap.add_argument("--series", metavar="STREAM.jsonl", default=None,
                    help="render a MetricsSampler JSONL stream: phases, "
                         "series, events, SLO verdicts")
    ap.add_argument("--follow", "-f", action="store_true",
                    help="with --series: redraw until the run's 'done' "
                         "event")
    ap.add_argument("--watch", action="append", metavar="SERIES",
                    help="with --series: series to sparkline (repeatable; "
                         "default: " + ", ".join(DEFAULT_WATCH) + ")")
    args = ap.parse_args(argv)

    if args.series is None and (args.follow or args.watch):
        ap.error("--follow and --watch need --series STREAM.jsonl")
    if args.series is not None:
        rc = _dump_series(args.series, args.follow,
                          args.watch or DEFAULT_WATCH)
        if rc != 0 or args.trace is None:
            return rc
        print()
    elif args.trace is None:
        ap.error("a TRACE.json argument or --series STREAM.jsonl is required")

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    if isinstance(doc, list):            # bare trace_event array form
        doc = {"traceEvents": doc}
    try:
        spans = spans_from_chrome(doc)
    except ValueError as exc:
        print(f"error: malformed trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    n_events = len(doc.get("traceEvents", []))
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)

    print(f"{args.trace}: {n_events} events, {len(spans)} trace spans, "
          f"{len(by_trace)} traces")

    shown = 0
    for trace_id, tspans in by_trace.items():
        if shown >= args.max_traces:
            print(f"\n... and {len(by_trace) - shown} more traces "
                  f"(raise --max-traces to see them)")
            break
        print()
        print(format_trace(tspans))
        shown += 1

    print()
    print("hint attribution (per resolved hint tuple, per stage):")
    print(attribution_table(spans))

    if args.metrics is not None:
        try:
            text = Path(args.metrics).read_text()
        except OSError as exc:
            print(f"error: cannot read {args.metrics}: {exc}",
                  file=sys.stderr)
            return 2
        print()
        print(f"metrics ({args.metrics}):")
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:              # e.g. piped into `head`
        sys.exit(0)
