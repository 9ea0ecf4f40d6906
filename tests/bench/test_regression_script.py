"""The CI ledger gate: scripts/check_bench_regression.py, exact equality."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", ROOT / "scripts" / "check_bench_regression.py")
cbr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cbr)

from repro.bench.report import (  # noqa: E402
    SCHEMA_VERSION, BenchRecord, config_hash, metric, write_bench)


def bench_file(tmp_path, fname, lat=10.0, tput=100.0, config=None,
               extra=None):
    recs = [BenchRecord(
        figure="fig04", name="latency", scale="small",
        config=config or {"sizes": [64]},
        metrics={"lat_us.busy.64": metric(lat, "us"),
                 "tput_kops.64": metric(tput, "kops"),
                 "cells": metric(42, "cells")})]
    if extra:
        recs.extend(extra)
    path = tmp_path / fname
    write_bench(recs, str(path))
    return str(path)


def test_identical_files_pass(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json")
    cur = bench_file(tmp_path, "cur.json")
    assert cbr.main([base, cur]) == 0
    assert "PASS" in capsys.readouterr().out


def test_degraded_latency_fails(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json", lat=10.0)
    cur = bench_file(tmp_path, "cur.json", lat=12.0)
    assert cbr.main([base, cur]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS fig04/latency/small lat_us.busy.64: 10.0 -> 12.0" in out


def test_degraded_throughput_fails(tmp_path):
    base = bench_file(tmp_path, "base.json", tput=100.0)
    cur = bench_file(tmp_path, "cur.json", tput=80.0)
    assert cbr.main([base, cur]) == 1


def test_missing_record_fails_the_gate(tmp_path, capsys):
    # A benchmark that silently stops running must fail the gate.
    extra = [BenchRecord(figure="fig05", name="tput", scale="small",
                         metrics={"m": metric(1.0)})]
    base = bench_file(tmp_path, "base.json", extra=extra)
    cur = bench_file(tmp_path, "cur.json")
    assert cbr.main([base, cur]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS fig05/tput/small: missing from the current run" in out
    assert "FAIL" in out


def test_missing_metric_fails_the_gate(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json")
    cur_path = tmp_path / "cur.json"
    recs = [BenchRecord(
        figure="fig04", name="latency", scale="small",
        config={"sizes": [64]},
        metrics={"lat_us.busy.64": metric(10.0, "us"),
                 "cells": metric(42, "cells")})]
    write_bench(recs, str(cur_path))                 # tput_kops.64 vanished
    assert cbr.main([base, str(cur_path)]) == 1
    assert ("DIFFERS fig04/latency/small tput_kops.64: missing from the "
            "current run") in capsys.readouterr().out


def test_exact_passes_only_identical_values(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json")
    assert cbr.main([base, bench_file(tmp_path, "same.json")]) == 0
    assert "PASS: every record and metric is equal" in \
        capsys.readouterr().out
    # better by a hair: still a difference
    cur = bench_file(tmp_path, "cur.json", lat=9.999999, tput=100.0000001)
    assert cbr.main([base, cur]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS fig04/latency/small lat_us.busy.64: 10.0 -> 9.999999" \
        in out
    assert "DIFFERS fig04/latency/small tput_kops.64: 100.0 -> 100.0000001" \
        in out
    assert "2 difference(s)" in out and "FAIL" in out


def test_exact_lists_informational_config_and_one_sided_changes(tmp_path,
                                                                capsys):
    extra = [BenchRecord(figure="fig05", name="tput", scale="small",
                         metrics={"m": metric(1.0)})]
    base = bench_file(tmp_path, "base.json", extra=extra)
    cur_path = tmp_path / "cur.json"
    write_bench([BenchRecord(
        figure="fig04", name="latency", scale="small",
        config={"sizes": [64, 512]},
        metrics={"lat_us.busy.64": metric(10.0, "us"),
                 "tput_kops.64": metric(100.0, "kops"),
                 "cells": metric(43, "cells"),
                 "new_metric": metric(1.0)})], str(cur_path))
    assert cbr.main([base, str(cur_path)]) == 1
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("DIFFERS")]
    old, new = config_hash({"sizes": [64]}), config_hash({"sizes": [64, 512]})
    assert lines == [
        f"DIFFERS fig04/latency/small: config {old} -> {new}",
        "DIFFERS fig04/latency/small cells: 42.0 -> 43.0",
        "DIFFERS fig04/latency/small new_metric: missing from the baseline",
        "DIFFERS fig05/tput/small: missing from the current run",
    ]


def test_cells_that_still_carry_better_compare_equal(tmp_path, capsys):
    # Ledgers written before directions were dropped load unchanged.
    base = bench_file(tmp_path, "base.json")
    doc = json.loads(Path(base).read_text())
    cells = doc["records"][0]["metrics"]
    for mname, better in (("cells", "none"), ("lat_us.busy.64", "lower"),
                          ("tput_kops.64", "higher")):
        cells[mname]["better"] = better
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert cbr.main([str(old), base]) == 0
    assert "0 difference(s)" in capsys.readouterr().out


def test_missing_file_is_usage_error(tmp_path):
    base = bench_file(tmp_path, "base.json")
    assert cbr.main([base, str(tmp_path / "nope.json")]) == 2


def test_invalid_json_is_usage_error(tmp_path):
    base = bench_file(tmp_path, "base.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cbr.main([base, str(bad)]) == 2


@pytest.mark.parametrize("metrics", [
    {"m": 3.0},                     # a cell that is not an object
    [1],                            # metrics that are not an object
    {"m": {"value": "abc"}},        # a value that is not a number
], ids=["cell_not_object", "metrics_not_object", "value_not_number"])
def test_malformed_metrics_is_usage_error(tmp_path, capsys, metrics):
    base = bench_file(tmp_path, "base.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": SCHEMA_VERSION, "records": [
        {"figure": "fig04", "name": "latency", "scale": "small",
         "metrics": metrics}]}))
    assert cbr.main([base, str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
