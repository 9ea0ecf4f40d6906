"""``python -m perfbench compare A.json B.json``: is B worse than A?

A and B are ``run --out`` documents.  For every workload and end-to-end
metric it prints both values, the change, the bound and a verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``regressed``   it is worse by more than the bound -- or, on the sim
                  clock at equal seed, the numbers or the ``sim_digest``
                  differ at all: the model's answer changed;
* ``unresolved``  the comparison cannot be made: a host-clock metric whose
                  run-to-run spread (``perfbench.repeat_spread`` of either
                  side) exceeds its bound, or a sim-clock metric at
                  different seeds.

The exit code is 1 if anything regressed, 2 if the files cannot be
compared at all, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = ["compare", "compare_files", "verdict"]

#: ``fail_share`` is judged on its absolute value: no more failures than A
FAIL_SHARE = {"name": "fail_share", "better": "lower", "bound": 0.0}


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (a - b) / a if better == "higher" else (b - a) / a


def verdict(name: str, a: float, b: float, better: str, bound: float,
            same_seed: bool, spread: float) -> str:
    if name == "fail_share":
        return "regressed" if b > a else "ok"
    if name.startswith("sim_"):
        if not same_seed:
            return "unresolved"
        return "ok" if a == b else "regressed"
    if spread > bound:
        return "unresolved"
    return "regressed" if worsening(a, b, better) > bound else "ok"


def compare(doc_a: dict, doc_b: dict, declared: List[dict]
            ) -> List[Tuple[str, str, object, object, str, str, str]]:
    """Rows ``(workload, metric, a, b, change, bound, verdict)``."""
    same_seed = doc_a["provenance"]["seed"] == doc_b["provenance"]["seed"]
    rows = []
    for wl, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(wl)
        if b is None:
            continue
        ma, mb = a["metrics"], b["metrics"]
        spread = max(m["perfbench.repeat_spread"]["value"] for m in (ma, mb))
        for d in [*declared, FAIL_SHARE]:
            name = d["name"]
            va, vb = ma[name]["value"], mb[name]["value"]
            change = worsening(va, vb, d["better"])
            rows.append((wl, name, va, vb, f"{change:+.2%}",
                         f"{d['bound']:.0%}",
                         verdict(name, va, vb, d["better"], d["bound"],
                                 same_seed, spread)))
        if same_seed:
            da, db = a["sim_digest"], b["sim_digest"]
            rows.append((wl, "sim_digest", da[:12], db[:12], "-", "equal",
                         "ok" if da == db else "regressed"))
    return rows


def compare_files(path_a: str, path_b: str, declaration: Dict) -> int:
    docs = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    for path, doc in zip((path_a, path_b), docs):
        if not doc.get("comparable", False):
            print(f"{path}: run with --scale other than 1, or incomplete; "
                  "its numbers are not comparable", file=sys.stderr)
            return 2
    rows = compare(*docs, declaration["end_to_end"])
    if not rows:
        print("the two files share no workload", file=sys.stderr)
        return 2
    for wl, name, va, vb, change, bound, v in rows:
        fa, fb = (f"{x:.6g}" if isinstance(x, float) else str(x)
                  for x in (va, vb))
        print(f"{wl} {name} {fa} {fb} {change} {bound} {v}")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{regressed} regressed, {unresolved} unresolved, "
          f"{len(rows) - regressed - unresolved} ok")
    return 1 if regressed else 0
