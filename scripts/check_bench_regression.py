#!/usr/bin/env python
"""Diff two BENCH_*.json files and fail (exit 1) on a perf regression.

    python scripts/check_bench_regression.py BENCH_BASELINE.json BENCH_pr.json
    python scripts/check_bench_regression.py base.json new.json \\
        --tolerance 0.10 --override 'latency_us.*=0.25' --override 'tput*=0.15'
    python scripts/check_bench_regression.py BENCH_BASELINE.json new.json --exact

Records are matched by (figure, name, scale).  Metrics are compared in the
direction declared by the baseline metric's ``better`` field:

* ``lower``  -- regression when ``new > base * (1 + tol)``;
* ``higher`` -- regression when ``new < base * (1 - tol)``;
* ``none``   -- informational, never gated.

``--override GLOB=TOL`` sets a per-metric tolerance (fnmatch glob over the
metric name, first match wins; may be repeated).  Records whose
``config_hash`` changed are reported but not compared -- a deliberate
config change is not a regression.

A baseline record or metric that is *absent from the current run* fails
the gate: a benchmark that silently stops running is exactly the
regression this script exists to catch.  ``--allow-missing`` downgrades
that to a warning (for intentionally retired benchmarks -- refresh the
baseline instead where possible).  ``--summary PATH`` appends a markdown
report (worst offenders first) suitable for ``$GITHUB_STEP_SUMMARY``.

``--exact`` is the gate for a change that must not move the model: it
fails on every metric whose value differs in any digit, in either direction
and whatever its ``better``, and lists each one; a record or metric on one
side only differs too, and a changed ``config_hash`` is listed as well.

Exit codes: 0 ok, 1 regression, difference or missing coverage, 2 usage/IO
error.
"""

from __future__ import annotations

import argparse
import sys
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import BenchRecord, load_bench  # noqa: E402

OK, REGRESSED, IMPROVED, SKIPPED = "ok", "REGRESSED", "improved", "skipped"


def parse_overrides(items: List[str]) -> List[Tuple[str, float]]:
    out = []
    for item in items:
        if "=" not in item:
            raise ValueError(f"--override needs GLOB=TOL, got {item!r}")
        glob, _, tol = item.rpartition("=")
        out.append((glob, float(tol)))
    return out


def tolerance_for(name: str, default: float,
                  overrides: List[Tuple[str, float]]) -> float:
    for glob, tol in overrides:
        if fnmatch(name, glob):
            return tol
    return default


def compare_metric(name: str, base: Dict, new: Dict, tol: float) -> str:
    better = base.get("better", "lower")
    bv, nv = base["value"], new["value"]
    if better == "none":
        return SKIPPED
    if bv == 0:
        # No meaningful relative comparison against a zero baseline.
        return OK if nv == 0 else SKIPPED
    if better == "lower":
        if nv > bv * (1 + tol):
            return REGRESSED
        if nv < bv * (1 - tol):
            return IMPROVED
    else:  # higher
        if nv < bv * (1 - tol):
            return REGRESSED
        if nv > bv * (1 + tol):
            return IMPROVED
    return OK


def diff(baseline: List[BenchRecord], current: List[BenchRecord],
         default_tol: float, overrides: List[Tuple[str, float]],
         verbose: bool = False, allow_missing: bool = False
         ) -> Tuple[int, int, List[str], List[Dict]]:
    """Returns (n_regressions, n_missing, report_lines, rows).

    ``rows`` carries one dict per reportable comparison (for the markdown
    summary): status, record id, metric, base/new values, signed delta %,
    tolerance %, and ``badness`` -- how far beyond tolerance the metric
    moved in the *wrong* direction (0 for non-regressions).
    """
    lines: List[str] = []
    rows: List[Dict] = []
    base_by_key = {r.key: r for r in baseline}
    cur_by_key = {r.key: r for r in current}
    regressions = missing = 0
    compared = improved = 0
    miss_word = "WARNING" if allow_missing else "MISSING"

    def miss(rid: str, what: str) -> None:
        nonlocal missing
        missing += 1
        lines.append(f"{miss_word} {rid}: {what}")
        rows.append({"status": "missing", "record": rid, "metric": what,
                     "base": None, "new": None, "delta": None, "tol": None,
                     "badness": 0.0})

    for key in sorted(base_by_key):
        rid = "/".join(key)
        if key not in cur_by_key:
            miss(rid, "missing from current run")
            continue
        base, cur = base_by_key[key], cur_by_key[key]
        if base.config_hash != cur.config_hash:
            lines.append(f"NOTE    {rid}: config changed "
                         f"({base.config_hash} -> {cur.config_hash}); "
                         "not compared")
            continue
        for mname in sorted(base.metrics):
            if mname not in cur.metrics:
                miss(rid, f"metric {mname} missing")
                continue
            tol = tolerance_for(mname, default_tol, overrides)
            verdict = compare_metric(mname, base.metrics[mname],
                                     cur.metrics[mname], tol)
            if verdict == SKIPPED:
                continue
            compared += 1
            bv = base.metrics[mname]["value"]
            nv = cur.metrics[mname]["value"]
            delta = (nv - bv) / bv * 100 if bv else 0.0
            if verdict == REGRESSED:
                regressions += 1
                better = base.metrics[mname].get("better", "lower")
                bad = delta if better == "lower" else -delta
                lines.append(
                    f"REGRESSED {rid} {mname}: {bv:g} -> {nv:g} "
                    f"({delta:+.1f}%, tol ±{tol * 100:.0f}%)")
                rows.append({"status": "regressed", "record": rid,
                             "metric": mname, "base": bv, "new": nv,
                             "delta": delta, "tol": tol * 100,
                             "badness": bad - tol * 100})
            elif verdict == IMPROVED:
                improved += 1
                rows.append({"status": "improved", "record": rid,
                             "metric": mname, "base": bv, "new": nv,
                             "delta": delta, "tol": tol * 100,
                             "badness": 0.0})
                if verbose:
                    lines.append(f"improved  {rid} {mname}: "
                                 f"{bv:g} -> {nv:g} ({delta:+.1f}%)")
            elif verbose:
                lines.append(f"ok        {rid} {mname}: "
                             f"{bv:g} -> {nv:g} ({delta:+.1f}%)")
    for key in sorted(set(cur_by_key) - set(base_by_key)):
        lines.append(f"NOTE    {'/'.join(key)}: new record "
                     "(no baseline); consider refreshing the baseline")
    lines.append(f"compared {compared} metrics: {regressions} regressed, "
                 f"{improved} improved, {missing} missing")
    return regressions, missing, lines, rows


def exact_diff(baseline: List[BenchRecord],
               current: List[BenchRecord]) -> Tuple[int, List[str]]:
    """Returns (number of differences, report lines): one line per record,
    config or metric that is not the same on both sides."""
    lines: List[str] = []
    base_by_key = {r.key: r for r in baseline}
    cur_by_key = {r.key: r for r in current}
    compared = 0
    for key in sorted(set(base_by_key) | set(cur_by_key)):
        rid = "/".join(key)
        base, cur = base_by_key.get(key), cur_by_key.get(key)
        if base is None or cur is None:
            side = "baseline" if base is None else "current run"
            lines.append(f"DIFFERS {rid}: missing from the {side}")
            continue
        if base.config_hash != cur.config_hash:
            lines.append(f"DIFFERS {rid}: config {base.config_hash} -> "
                         f"{cur.config_hash}")
        for mname in sorted(set(base.metrics) | set(cur.metrics)):
            bm, cm = base.metrics.get(mname), cur.metrics.get(mname)
            if bm is None or cm is None:
                side = "baseline" if bm is None else "current run"
                lines.append(f"DIFFERS {rid} {mname}: missing from the "
                             f"{side}")
                continue
            compared += 1
            if bm["value"] != cm["value"]:
                lines.append(f"DIFFERS {rid} {mname}: {bm['value']!r} -> "
                             f"{cm['value']!r}")
    n = len(lines)
    lines.append(f"compared {compared} metrics of {len(cur_by_key)} records "
                 f"exactly: {n} difference(s)")
    return n, lines


_STATUS_ORDER = {"regressed": 0, "missing": 1, "improved": 2}
_STATUS_MARK = {"regressed": "🔴 regressed", "missing": "⚠️ missing",
                "improved": "🟢 improved"}


def write_summary(path: str, failed: bool, regressions: int, missing: int,
                  rows: List[Dict], allow_missing: bool) -> None:
    """Append a markdown report -- worst offenders first -- to ``path``."""
    # Regressions sorted by how far past tolerance they landed, then
    # missing coverage, then improvements; steady metrics stay off the
    # report (the log has them under --verbose).
    ordered = sorted(rows, key=lambda r: (_STATUS_ORDER[r["status"]],
                                          -r["badness"]))
    out = ["## Bench regression check", ""]
    verdict = "**FAIL**" if failed else "**PASS**"
    n_improved = sum(1 for r in rows if r["status"] == "improved")
    out.append(f"{verdict} — {regressions} regressed, {missing} missing"
               f"{' (allowed)' if allow_missing and missing else ''}, "
               f"{n_improved} improved")
    if ordered:
        out += ["", "| status | record | metric | baseline | current | Δ |",
                "|---|---|---|---|---|---|"]
        for r in ordered:
            if r["status"] == "missing":
                out.append(f"| {_STATUS_MARK['missing']} | {r['record']} | "
                           f"{r['metric']} | — | — | — |")
            else:
                out.append(
                    f"| {_STATUS_MARK[r['status']]} | {r['record']} | "
                    f"{r['metric']} | {r['base']:g} | {r['new']:g} | "
                    f"{r['delta']:+.1f}% (tol ±{r['tol']:.0f}%) |")
    out.append("")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Gate on benchmark regressions between two BENCH files")
    ap.add_argument("baseline", help="committed BENCH_BASELINE.json")
    ap.add_argument("current", help="freshly generated BENCH file")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="default relative tolerance (default 0.10 = 10%%)")
    ap.add_argument("--override", action="append", default=[],
                    metavar="GLOB=TOL",
                    help="per-metric tolerance override (repeatable)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="baseline records/metrics absent from the current "
                         "run warn instead of failing the gate")
    ap.add_argument("--summary", metavar="PATH",
                    help="append a markdown report (worst offenders first) "
                         "to PATH, e.g. \"$GITHUB_STEP_SUMMARY\"")
    ap.add_argument("--verbose", action="store_true",
                    help="also print non-regressed comparisons")
    ap.add_argument("--exact", action="store_true",
                    help="fail on any metric whose value differs in any "
                         "digit (tolerances and directions ignored)")
    args = ap.parse_args(argv)

    try:
        overrides = parse_overrides(args.override)
        baseline = load_bench(args.baseline)
        current = load_bench(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.exact:
        n, lines = exact_diff(baseline, current)
        for line in lines:
            print(line)
        if n:
            print(f"\nFAIL: {n} difference(s)")
            return 1
        print("\nPASS: every record and metric is equal")
        return 0

    regressions, missing, lines, rows = diff(
        baseline, current, args.tolerance, overrides,
        verbose=args.verbose, allow_missing=args.allow_missing)
    for line in lines:
        print(line)
    failed = bool(regressions or (missing and not args.allow_missing))
    if args.summary:
        try:
            write_summary(args.summary, failed, regressions, missing, rows,
                          args.allow_missing)
        except OSError as exc:
            print(f"error: cannot write summary: {exc}", file=sys.stderr)
            return 2
    if failed:
        parts = []
        if regressions:
            parts.append(f"{regressions} metric(s) regressed "
                         "beyond tolerance")
        if missing and not args.allow_missing:
            parts.append(f"{missing} baseline metric(s)/record(s) missing "
                         "from the current run")
        print(f"\nFAIL: {'; '.join(parts)}")
        return 1
    print("\nPASS: no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
