#!/usr/bin/env python
"""Compare two BENCH_*.json files value for value; exit 1 on any difference.

    python scripts/check_bench_regression.py BENCH_BASELINE.json BENCH_pr.json

Records are matched by (figure, name, scale).  Every metric must hold the
same value on both sides, in every digit; a record or metric on one side
only differs too, and so does a changed ``config_hash``.  Each difference
is listed on its own ``DIFFERS`` line.  A change that moves the model
refreshes ``BENCH_BASELINE.json`` in the same commit.

Exit codes: 0 equal, 1 differences, 2 usage/IO error (a missing, invalid
or malformed file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.report import BenchRecord, load_bench  # noqa: E402


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


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="List every metric that differs between two BENCH files")
    ap.add_argument("baseline", help="committed BENCH_BASELINE.json")
    ap.add_argument("current", help="freshly generated BENCH file")
    args = ap.parse_args(argv)

    try:
        baseline = load_bench(args.baseline)
        current = load_bench(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    n, lines = exact_diff(baseline, current)
    for line in lines:
        print(line)
    if n:
        print(f"\nFAIL: {n} difference(s)")
        return 1
    print("\nPASS: every record and metric is equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
