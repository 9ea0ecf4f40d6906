"""scripts/mem_holders.py: one tiny perfbench bed under tracemalloc."""

import importlib.util
import tracemalloc
from pathlib import Path

from repro.sim.core import Simulator

ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "mem_holders", ROOT / "scripts" / "mem_holders.py")
mh = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mh)


def test_package_of_charges_each_file_to_its_package():
    gen = "atb_latency_gen.py"
    assert mh.package_of("/t/src/repro/verbs/memory.py", gen) == "repro/verbs"
    assert mh.package_of("/t/src/repro/testbed.py", gen) == "repro/testbed"
    assert mh.package_of(gen, gen) == "generated IDL"
    assert mh.package_of("/t/perfbench/workloads.py", gen) == "perfbench"
    assert mh.package_of("/usr/lib/python3.11/heapq.py", gen) == "other"
    assert mh.short("/t/src/repro/verbs/memory.py") == "repro/verbs/memory.py"


def test_a_tiny_atb_small_bed(capsys):
    assert mh.main(["--workload", "atb_small", "--scale", "0"]) == 0
    assert not tracemalloc.is_tracing()         # stopped what it started
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("atb_small seed 0 scale 0.0: 1 clients x 12 ops, "
                      "12 attempted, 0 failed")
    assert "at the peak snapshot" in out[1] and "ru_maxrss" in out[1]
    packages = out[out.index(next(x for x in out if x.startswith(
        "by package, at the peak"))) + 1:out.index("", 3)]
    names = [row.split()[0] for row in packages]
    assert {"repro/verbs", "repro/thrift", "repro/sim"} <= set(names)
    sizes = [float(row.split()[-3]) for row in packages]
    assert sizes == sorted(sizes, reverse=True)
    lines = out[out.index(next(x for x in out if x.startswith(
        f"by line, at the peak (top {mh.TOP})"))) + 1:]
    assert len(lines) == mh.TOP



def test_report_prints_resident_registered_memory_per_node():
    """Between the two tables: the registered memory still holding
    messages, in all and node by node."""
    m = {"workload": "w", "seed": 0, "scale": 1.0, "clients": 1,
         "ops_per_client": 1, "attempted": 1, "failed": 0, "live": 1024,
         "peak": 2048, "maxrss_mb": 1.0, "resident": [2048, 0, 512],
         "at_peak": {"live": 2000, "now": 1e-3, "event": 5, "events": 9,
                     "resident": [1024, 1024, 0]},
         "by_package": [("repro/verbs", 1024, 1)],
         "by_line": [("repro/verbs/memory.py:1", 1024, 1)]}
    out = mh.report(m)
    first = [next(k for k, line in enumerate(out) if line.startswith(head))
             for head in ("by package", "resident", "by line")]
    assert first == sorted(first)
    assert out[first[1]] == ("resident registered memory: 2.5 KiB; "
                             "by node: 2.0, 0.0, 0.5")
    assert out[first[1] + 1] == "at the peak: 2.0 KiB; by node: 1.0, 1.0, 0.0"
    assert out[1].startswith("traced: 0.0 MB at the peak snapshot (event 5 "
                             "of 9, sim 1.000 ms)")


def test_the_snapshot_is_taken_at_the_peak_not_at_the_end():
    """A 4 MiB buffer lives between two events only: the tables show it,
    though nothing of it is left when the run ends."""
    sim = Simulator()

    def spike():
        yield sim.timeout(1.0)
        held = bytearray(4 << 20)
        yield sim.timeout(1.0)
        del held
        yield sim.timeout(1.0)

    tracemalloc.start()
    try:
        sim.process(spike())
        peak = mh.run_to_peak(sim, [])
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak["now"] == 1.0 and peak["events"] > peak["event"] > 0
    assert peak["live"] - end >= 4 << 20
    biggest = peak["snapshot"].statistics("lineno")[0]
    assert biggest.size >= 4 << 20
    assert biggest.traceback[0].filename == __file__
