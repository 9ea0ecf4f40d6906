#!/usr/bin/env python
"""Who holds the host memory of one perfbench bed: tracemalloc, by package
and by source line.

    python scripts/mem_holders.py --workload atb_bulk
    python scripts/mem_holders.py --workload ycsb_b --seed 3 --scale 0.1

Builds one bed of the workload exactly as ``perfbench.workloads`` defines it
(read, never changed) and runs every client's loop to completion, with as
many ops per client as ``perfbench run --scale X`` gives, under
``tracemalloc`` from before the build.  It steps the simulator one event at a
time and snapshots the traced allocations whenever traced memory passes the
last snapshot's by more than ``GRAIN``, so the last snapshot is taken within
that share of the largest traced memory between two events: the peak, which
is what ``ru_maxrss`` (and perfbench's ``host_rss_mb``) pays for, where the
end of a run shows only what outlives it.  It prints what the peak snapshot
holds, grouped by package -- ``repro/<package>`` (a module directly under
``repro`` is its own package), ``generated IDL`` for the modules
``repro.idl`` compiles, ``perfbench``, and ``other`` for the standard library
and site-packages -- and by line, beside tracemalloc's own peak, what is
live at the end and the process's ``ru_maxrss``; and, per node, the
registered memory holding messages (``Memory.resident_bytes``: bytes written
and not yet released) at the end and at the peak.  Tracing slows the run
several-fold: read the sizes, not the time.

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
#: A new snapshot is taken once traced memory passes the last one's by more
#: than this share (a snapshot per new maximum would cost more than the run).
GRAIN = 0.01


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


def run_to_peak(sim, nodes) -> dict:
    """Step ``sim`` until it has no event left, snapshotting at the peak of
    traced memory (see ``GRAIN``): the snapshot, the traced bytes, the
    simulated time and the event number it was taken at, and each node's
    resident registered memory then.  Tracing must be on."""
    def snap(event: int) -> dict:
        return {"snapshot": tracemalloc.take_snapshot(),
                "live": tracemalloc.get_traced_memory()[0],
                "now": sim.now, "event": event,
                "resident": [n.nic.mem.resident_bytes for n in nodes]}

    peak = snap(0)
    events = 0
    while sim.peek() != float("inf"):
        sim.step()
        events += 1
        if tracemalloc.get_traced_memory()[0] > peak["live"] * (1 + GRAIN):
            # The old snapshot goes first: two at once would raise the
            # ru_maxrss this script reports.
            peak = None
            peak = snap(events)
    peak["events"] = events
    return peak


def measure(workload: str, seed: int, scale: float) -> dict:
    """Run one bed of ``workload`` under tracemalloc; what it holds at the
    peak, and what is left at the end."""
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
        at_peak = run_to_peak(sim, bed.tb.nodes)
        for p in procs:
            p.value             # a client that died outside an op: raise
        live, peak = tracemalloc.get_traced_memory()
        resident = [node.nic.mem.resident_bytes for node in bed.tb.nodes]
        snapshot = at_peak.pop("snapshot").filter_traces(
            [tracemalloc.Filter(False, tracemalloc.__file__)])
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
        "live": live, "peak": peak, "at_peak": at_peak,
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


def _resident(title: str, per_node: List[int]) -> str:
    return (f"{title}: {sum(per_node) / KiB:.1f} KiB; by node: "
            + ", ".join(f"{n / KiB:.1f}" for n in per_node))


def report(m: dict) -> List[str]:
    p = m["at_peak"]
    held = p["live"] or 1
    return [
        f"{m['workload']} seed {m['seed']} scale {m['scale']}: "
        f"{m['clients']} clients x {m['ops_per_client']} ops, "
        f"{m['attempted']} attempted, {m['failed']} failed",
        f"traced: {p['live'] / 1e6:.1f} MB at the peak snapshot (event "
        f"{p['event']} of {p['events']}, sim {p['now'] * 1e3:.3f} ms), peak "
        f"{m['peak'] / 1e6:.1f} MB, {m['live'] / 1e6:.1f} MB live at the "
        f"end; ru_maxrss {m['maxrss_mb']:.1f} MB",
        "",
        *_table("by package, at the peak", m["by_package"], held),
        "",
        _resident("resident registered memory", m["resident"]),
        _resident("at the peak", p["resident"]),
        "",
        *_table(f"by line, at the peak (top {TOP})", m["by_line"][:TOP],
                held),
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
