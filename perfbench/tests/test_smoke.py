"""All four workloads end to end at a fiftieth of their size."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def test_run_emits_exactly_the_declared_names(tmp_path):
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "run.json"
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--scale", "0.02",
         "--seconds", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())

    assert doc["comparable"] is False          # --scale != 1 stamps it
    assert list(doc["workloads"]) == [w["name"] for w in decl["workloads"]]
    declared = {m["name"]: m["unit"]
                for m in decl["end_to_end"] + decl["per_layer"]}
    declared["fail_share"] = "ratio"    # the contract's failed / attempted
    emitted = {}
    for name, wl in doc["workloads"].items():
        assert wl["failed"] == 0, wl["first_error"]
        assert wl["metrics"]["fail_share"]["value"] == 0
        for metric, m in wl["metrics"].items():
            assert declared.get(metric) == m["unit"], (name, metric)
            emitted[metric] = m["unit"]
        # what a workload leaves out is a layer it does not exercise
        missing = set(declared) - set(wl["metrics"])
        assert all(m.split(".")[0] in ("ycsb", "lmdb", "hatkv")
                   for m in missing), (name, missing)
    assert emitted == declared
    # every line of the table is: workload metric value unit n
    rows = [line.split() for line in proc.stdout.splitlines()
            if line.split()[1:2] == ["sim_p99_us"]]
    assert len(rows) == 4 and all(len(r) == 5 and r[3] == "us" for r in rows)
