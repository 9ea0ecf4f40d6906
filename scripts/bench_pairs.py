#!/usr/bin/env python
"""Alternating pairs of the benchmark driver on two trees, and the verdict.

    python scripts/bench_pairs.py PARENT_TREE TREE --workload atb_small --seed 0
    python scripts/bench_pairs.py PARENT_TREE TREE --workload atb_bulk \\
        --seed 5 --pairs 10
    python scripts/bench_pairs.py PARENT_TREE TREE --workload atb_small \\
        --workload ycsb_b --seed 0 --seed 7 --pairs 3

Each pair runs the unmodified driver command of ``BENCHMARK.json``
(``python3 -m perfbench bench``) with ``--workload W --seed S`` once in
each tree -- a fresh interpreter whose working directory is the tree -- the
parent first on even pairs and second on odd ones, so drift over the
session lands on both sides.  Nothing else should run meanwhile: on a
2-core host a concurrent test run moves ``host_us_per_op`` by 10 % or more.
Every run compiles cold: its ``PYTHONPYCACHEPREFIX`` is a new, empty
directory, so neither tree reads a bytecode cache that some earlier run
left in it, as a fresh checkout has none -- ``host_rss_mb`` and
``setup_s`` count compiling the sources, and would otherwise favour
whichever tree happens to hold a cache.

For every end-to-end metric it prints both sides' median and quartiles,
how many pairs the tree won (strictly better in the metric's declared
direction) and whether that is a gain by the rule a performance claim is
held to: better on at least 9 of 10 pairs (90 % of them), and the medians
further apart than the parent's own quartile distance.  The ``sim_*``
metrics are the model's answer, not a cost: they must be *equal* in every
run of both trees.  Where they are not, it prints, for each differing one,
both trees' values pair by pair and the tree's relative change: the movement
a declared model change is reviewed by.

``--workload`` and ``--seed`` may each be given more than once: every
combination is run in turn (its pairs, then its report), and the output
ends with a verdict table, one line per combination.

Exit codes: 0 done (whatever the verdict), 2 a ``sim_*`` value differs
between the trees in any combination, or a run failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

#: share of pairs the tree must win for a gain
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> tuple:
    """(Q1, median, Q3) of ``values``, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: Sequence[float], tree: Sequence[float],
            better: str) -> dict:
    """The claim rule on one metric; ``parent[k]`` and ``tree[k]`` are the
    two sides of pair ``k``."""
    if len(parent) != len(tree) or not parent:
        raise ValueError("need the same number (> 0) of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (t - p) < 0 for p, t in zip(parent, tree))
    p_q1, p_med, p_q3 = quartiles(parent)
    t_q1, t_med, t_q3 = quartiles(tree)
    gain = (won >= math.ceil(WIN_SHARE * len(parent))
            and sign * (p_med - t_med) > p_q3 - p_q1)
    return {"pairs": len(parent), "won": won,
            "parent": (p_q1, p_med, p_q3), "tree": (t_q1, t_med, t_q3),
            "change": t_med / p_med - 1 if p_med else math.nan,
            "gain": gain}


def sim_mismatches(parent_runs: List[dict], tree_runs: List[dict]
                   ) -> List[str]:
    """Names of the ``sim_*`` metrics whose values are not one and the same
    in every run of both trees."""
    names = sorted({n for run in parent_runs + tree_runs
                    for n in run["metrics"] if n.startswith("sim_")})
    return [n for n in names
            if len({run["metrics"].get(n, {}).get("value")
                    for run in parent_runs + tree_runs}) != 1]


def sim_report(parent_runs: List[dict], tree_runs: List[dict]) -> List[str]:
    """For every ``sim_*`` metric that differs, one line per pair: the
    parent's value, the tree's and the tree's relative change -- what a
    declared model change is reviewed by."""
    out = []
    for name in sim_mismatches(parent_runs, tree_runs):
        for k, (p_run, t_run) in enumerate(zip(parent_runs, tree_runs)):
            p = p_run["metrics"].get(name, {}).get("value")
            t = t_run["metrics"].get(name, {}).get("value")
            change = f"{t / p - 1:+.2%}" if p and t is not None else "n/a"
            out.append(f"{name:>16} pair {k}: parent {p!r} tree {t!r} "
                       f"{change}")
    return out


def run_driver(tree: Path, workload: str, seed: int) -> dict:
    command = json.loads((tree / "BENCHMARK.json").read_text())["command"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-pycache-") as cache:
        env["PYTHONPYCACHEPREFIX"] = cache
        proc = subprocess.run(
            [*command, "--workload", workload, "--seed", str(seed)],
            cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def verdicts(parent_runs: List[dict], tree_runs: List[dict],
             declared: List[dict]) -> List[tuple]:
    """``(declaration, verdict)`` of every declared end-to-end metric that
    is a cost, not the model's answer (``sim_*``)."""
    out = []
    for d in declared:
        name = d["name"]
        if name.startswith("sim_"):
            continue
        p = [run["metrics"][name]["value"] for run in parent_runs]
        t = [run["metrics"][name]["value"] for run in tree_runs]
        out.append((d, verdict(p, t, d["better"])))
    return out


def report(parent_runs: List[dict], tree_runs: List[dict],
           declared: List[dict]) -> List[str]:
    return [
        f"{d['name']:>16} [{d['unit']}, {d['better']}]  "
        f"parent {v['parent'][1]:.4g} (Q1 {v['parent'][0]:.4g}, "
        f"Q3 {v['parent'][2]:.4g})  tree {v['tree'][1]:.4g} "
        f"(Q1 {v['tree'][0]:.4g}, Q3 {v['tree'][2]:.4g})  "
        f"{v['change']:+.1%}  won {v['won']}/{v['pairs']}  "
        f"{'GAIN' if v['gain'] else 'no gain'}"
        for d, v in verdicts(parent_runs, tree_runs, declared)]


def table_line(workload: str, seed: int, parent_runs: List[dict],
               tree_runs: List[dict], declared: List[dict]) -> str:
    """One combination's row of the closing verdict table."""
    cells = [f"{d['name']} {v['change']:+.1%} {v['won']}/{v['pairs']}"
             f"{' GAIN' if v['gain'] else ''}"
             for d, v in verdicts(parent_runs, tree_runs, declared)]
    bad = sim_mismatches(parent_runs, tree_runs)
    cells.append(f"sim differs: {', '.join(bad)}" if bad else "sim equal")
    return f"{workload} seed {seed}: " + "; ".join(cells)


def run_pairs(trees: tuple, workload: str, seed: int, pairs: int):
    """``pairs`` alternating pairs on the two trees: (parent runs, tree
    runs), or None once a run failed."""
    runs: Dict[Path, List[dict]] = {t: [] for t in trees}
    for k in range(pairs):
        for tree in (trees if k % 2 == 0 else trees[::-1]):
            run = run_driver(tree, workload, seed)
            runs[tree].append(run)
            side = "parent" if tree == trees[0] else "tree"
            host = run["metrics"].get("host_us_per_op", {}).get("value")
            print(f"{workload} seed {seed} pair {k} {side}: "
                  f"host_us_per_op {host}", flush=True)
            if not run.get("correct"):
                print(f"{side} run failed in {tree}", file=sys.stderr)
                return None
    return runs[trees[0]], runs[trees[1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("tree", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="repeat to run several workloads")
    ap.add_argument("--seed", type=int, action="append",
                    help="repeat to run several seeds (default: 0)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    trees = (args.parent.resolve(), args.tree.resolve())
    declared = json.loads((trees[1] / "BENCHMARK.json").read_text())[
        "end_to_end"]
    table, differ = [], False
    for workload in args.workload:
        for seed in args.seed or [0]:
            runs = run_pairs(trees, workload, seed, args.pairs)
            if runs is None:
                return 2
            parent_runs, tree_runs = runs
            print(f"{workload} seed {seed}, {args.pairs} pairs:")
            for line in report(parent_runs, tree_runs, declared):
                print(line)
            bad = sim_mismatches(parent_runs, tree_runs)
            if bad:
                differ = True
                for line in sim_report(parent_runs, tree_runs):
                    print(line)
                print(f"{workload} seed {seed}: sim values differ between "
                      f"the trees: {', '.join(bad)}", file=sys.stderr)
            else:
                print("every sim_* value equal in both trees")
            table.append(table_line(workload, seed, parent_runs, tree_runs,
                                    declared))
    print("verdicts:")
    for line in table:
        print(line)
    return 2 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
