"""scripts/mem_holders.py: one tiny perfbench bed under tracemalloc."""

import importlib.util
import tracemalloc
from pathlib import Path

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
    assert "ru_maxrss" in out[1]
    packages = out[out.index(next(x for x in out if x.startswith(
        "by package"))) + 1:out.index("", 3)]
    names = [row.split()[0] for row in packages]
    assert {"repro/verbs", "repro/thrift", "repro/sim"} <= set(names)
    sizes = [float(row.split()[-3]) for row in packages]
    assert sizes == sorted(sizes, reverse=True)
    lines = out[out.index(next(x for x in out if x.startswith(
        f"by line (top {mh.TOP})"))) + 1:]
    assert len(lines) == mh.TOP



def test_report_prints_resident_registered_memory_per_node():
    """Between the two tables: the registered memory still holding
    messages, in all and node by node."""
    m = {"workload": "w", "seed": 0, "scale": 1.0, "clients": 1,
         "ops_per_client": 1, "attempted": 1, "failed": 0, "live": 1024,
         "peak": 2048, "maxrss_mb": 1.0, "resident": [2048, 0, 512],
         "by_package": [("repro/verbs", 1024, 1)],
         "by_line": [("repro/verbs/memory.py:1", 1024, 1)]}
    out = mh.report(m)
    first = [next(k for k, line in enumerate(out) if line.startswith(head))
             for head in ("by package", "resident", "by line")]
    assert first == sorted(first)
    assert out[first[1]] == ("resident registered memory: 2.5 KiB; "
                             "by node: 2.0, 0.0, 0.5")
