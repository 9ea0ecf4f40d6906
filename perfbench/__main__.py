"""Command line of the benchmark.

``python -m perfbench run``      every workload, each in a fresh interpreter
``python -m perfbench compare``  two ``run`` outputs against the bounds
``python -m perfbench bench``    one workload, as BENCHMARK.json's driver
                                 calls it (one JSON line on stdout)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
DECLARATION = ROOT / "BENCHMARK.json"


def declaration() -> dict:
    return json.loads(DECLARATION.read_text())


#: set-up is timed in this many just-booted interpreters (this one and
#: fresh ones, one after another) and the least is reported: a cold start
#: cannot be repeated inside one process
COLD_STARTS = 3


def _cold_start_elsewhere(name: str, seed: int, scale: float) -> List[float]:
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "cold", "--workload", name,
         "--seed", str(seed), "--scale", str(scale)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_workload(name: str, seed: int, seconds: float, scale: float,
                     end_to_end: bool, passes: bool) -> dict:
    """One workload in this process: timed repeats, then the cold starts
    that ``setup_s`` needs and the passes that the per-layer metrics need."""
    # Imported here so that ``compare`` works without the program on hand.
    from perfbench.runner import measure, metric
    from perfbench.workloads import WORKLOADS

    wall0 = time.perf_counter()
    wl = WORKLOADS[name]
    doc = measure(wl, seed, seconds, scale)
    if end_to_end:
        raw = doc["raw"]
        while len(raw["cold_start_ref_s"]) < COLD_STARTS:
            cpu_s, ref_s = _cold_start_elsewhere(name, seed, scale)
            raw["cold_start_cpu_s"].append(cpu_s)
            raw["cold_start_ref_s"].append(ref_s)
        doc["metrics"]["setup_s"] = metric(min(raw["cold_start_ref_s"]), "s",
                                           COLD_STARTS)
    if passes:
        from perfbench.passes import run_all
        doc["metrics"].update(run_all(wl, seed, scale))
    doc["elapsed_wall_s"] = time.perf_counter() - wall0
    return doc


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1min_at_start": os.getloadavg()[0],
    }


def _print_table(doc: dict) -> None:
    for name, m in doc["metrics"].items():
        n = "-" if m["n"] is None else m["n"]
        print(f"{doc['workload']} {name} {m['value']:.6g} {m['unit']} {n}")
    print(f"{doc['workload']} sim_digest {doc['sim_digest']}")


def cmd_run(args) -> int:
    wall0 = time.perf_counter()
    decl = declaration()
    names = [args.workload] if args.workload else [
        w["name"] for w in decl["workloads"]]
    out = {"provenance": provenance(args.seed), "comparable": True,
           "workloads": {}}
    status = 0
    for name in names:
        # One fresh interpreter per workload, one after another: set-up
        # time and peak memory are then each workload's own.
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench", "one", "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--scale", str(args.scale)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: worker exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        _print_table(doc)
        out["workloads"][name] = doc
        out["comparable"] = out["comparable"] and doc["comparable"]
        if doc["failed"]:
            print(f"{name}: {doc['failed']} of {doc['attempted']} ops "
                  f"failed; first: {doc['first_error']}", file=sys.stderr)
            status = 1
    out["elapsed_wall_s"] = time.perf_counter() - wall0
    print(f"total elapsed_wall_s {out['elapsed_wall_s']:.1f}")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return status


def cmd_cold(args) -> int:
    from perfbench.runner import cold_start
    from perfbench.workloads import WORKLOADS
    print(json.dumps(cold_start(WORKLOADS[args.workload], args.seed,
                                args.scale)))
    return 0


def cmd_one(args) -> int:
    doc = measure_workload(args.workload, args.seed, args.seconds,
                           args.scale, end_to_end=True, passes=True)
    print(json.dumps(doc))
    return 1 if doc["failed"] else 0


def cmd_bench(args) -> int:
    decl = declaration()
    doc = measure_workload(args.workload, args.seed, args.seconds, 1.0,
                           end_to_end=not args.trace,
                           passes=bool(args.trace))
    declared = decl["per_layer"] if args.trace else decl["end_to_end"]
    metrics = {}
    for d in declared:
        # A layer the workload does not exercise reports 0 (README).
        m = doc["metrics"].get(d["name"])
        metrics[d["name"]] = {"value": m["value"] if m else 0.0,
                              "unit": d["unit"]}
    correct = doc["failed"] == 0
    if not correct:
        print(doc["first_error"], file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if correct else 1


def cmd_compare(args) -> int:
    from perfbench.compare import compare_files
    return compare_files(args.a, args.b, declaration())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run_seconds = declaration()["run_seconds"]

    def workload_args(p, required: bool) -> None:
        p.add_argument("--workload", required=required)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=run_seconds,
                       help="timed work per workload before the repeats "
                            "stop (never fewer than three repeats)")

    p = sub.add_parser("run", help="all workloads, every metric")
    workload_args(p, required=False)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply op counts; output is then not comparable")
    p.add_argument("--out", help="write the result document here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("one", help="(internal) one workload, JSON line")
    workload_args(p, required=True)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_one)

    p = sub.add_parser("cold", help="(internal) boot, warm up, build; "
                                    "print the CPU-seconds it took")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_cold)

    p = sub.add_parser("bench", help="one workload, driver contract")
    workload_args(p, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("compare", help="two run outputs against the bounds")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
