#!/usr/bin/env python
"""Who holds the host memory of one perfbench bed: tracemalloc, by package
and by source line.

    python scripts/mem_holders.py --workload atb_bulk
    python scripts/mem_holders.py --workload ycsb_b --seed 3 --scale 0.1

Builds one bed of the workload exactly as ``perfbench.workloads`` defines it
(read, never changed) and runs every client's loop to completion, with as
many ops per client as ``perfbench run --scale X`` gives, under
``tracemalloc`` from before the build.  Then, with the bed still alive, it
prints what is allocated, grouped by package -- ``repro/<package>`` (a
module directly under ``repro`` is its own package), ``generated IDL`` for
the modules ``repro.idl`` compiles, ``perfbench``, and ``other`` for the
standard library and site-packages -- and by line, beside the traced peak
and the process's ``ru_maxrss``; and, per node, the registered memory still
holding messages at the end (``Memory.resident_bytes``: bytes written and not
yet released).  Tracing slows the run several-fold: read the sizes, not the
time.

Exit codes: 0 done, 2 a client op failed.
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.oracle import Recorder  # noqa: E402
from perfbench.workloads import WORKLOADS, scaled_ops  # noqa: E402

KiB = 1024
#: Source lines listed in the by-line table.
TOP = 10


def package_of(filename: str, generated: str) -> str:
    """The package a traced allocation is charged to."""
    parts = Path(filename).parts
    if "repro" in parts:
        rest = parts[len(parts) - parts[::-1].index("repro"):]
        return "repro/" + rest[0].removesuffix(".py")
    if filename == generated:
        return "generated IDL"
    if "perfbench" in parts:
        return "perfbench"
    return "other"


def short(filename: str) -> str:
    """``filename`` from its ``repro`` or ``perfbench`` directory on."""
    parts = Path(filename).parts
    for top in ("repro", "perfbench"):
        if top in parts:
            return "/".join(parts[len(parts) - parts[::-1].index(top) - 1:])
    return filename


def measure(workload: str, seed: int, scale: float) -> dict:
    """Run one bed of ``workload`` under tracemalloc; what it holds at the
    end, and the peak."""
    wl = WORKLOADS[workload]
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        bed = wl.build(seed)
        rec = Recorder(bed.op_names)
        sim = bed.tb.sim
        n_ops = scaled_ops(wl, scale)
        procs = [sim.process(g, name=f"mem-holders-client-{i}")
                 for i, g in enumerate(bed.clients(n_ops, rec))]
        sim.run()
        for p in procs:
            p.value             # a client that died outside an op: raise
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__)])
        live, peak = tracemalloc.get_traced_memory()
        resident = [node.nic.mem.resident_bytes for node in bed.tb.nodes]
    finally:
        if started:
            tracemalloc.stop()
    generated = bed.gen.__name__ + ".py"
    by_package: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for stat in snapshot.statistics("filename"):
        held = by_package[package_of(stat.traceback[0].filename, generated)]
        held[0] += stat.size
        held[1] += stat.count
    return {
        "workload": workload, "seed": seed, "scale": scale,
        "clients": len(procs), "ops_per_client": n_ops,
        "attempted": rec.attempted, "failed": rec.failed,
        "live": live, "peak": peak,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "resident": resident,
        "by_package": sorted(((name, size, count) for name, (size, count)
                              in by_package.items()),
                             key=lambda row: -row[1]),
        "by_line": [(f"{short(s.traceback[0].filename)}:"
                     f"{s.traceback[0].lineno}", s.size, s.count)
                    for s in snapshot.statistics("lineno")],
    }


def _table(title: str, rows: List[Tuple[str, int, int]], total: int
           ) -> List[str]:
    out = [f"{title:<44} {'KiB':>10} {'blocks':>8} {'share':>7}"]
    for name, size, count in rows:
        out.append(f"{name:<44} {size / KiB:>10.1f} {count:>8} "
                   f"{size / total:>7.1%}")
    return out


def report(m: dict) -> List[str]:
    live = m["live"] or 1
    return [
        f"{m['workload']} seed {m['seed']} scale {m['scale']}: "
        f"{m['clients']} clients x {m['ops_per_client']} ops, "
        f"{m['attempted']} attempted, {m['failed']} failed",
        f"traced: {m['live'] / 1e6:.1f} MB live at the end, peak "
        f"{m['peak'] / 1e6:.1f} MB; ru_maxrss {m['maxrss_mb']:.1f} MB",
        "",
        *_table("by package", m["by_package"], live),
        "",
        f"resident registered memory: {sum(m['resident']) / KiB:.1f} KiB; "
        "by node: " + ", ".join(f"{n / KiB:.1f}" for n in m["resident"]),
        "",
        *_table(f"by line (top {TOP})", m["by_line"][:TOP], live),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="share of the workload's ops, as perfbench --scale")
    args = ap.parse_args(argv)
    m = measure(args.workload, args.seed, args.scale)
    print("\n".join(report(m)))
    return 2 if m["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
