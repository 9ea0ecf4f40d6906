"""The CI perf gate: scripts/check_bench_regression.py pass/fail paths."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", ROOT / "scripts" / "check_bench_regression.py")
cbr = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cbr)

from repro.bench.report import (  # noqa: E402
    BenchRecord, config_hash, metric, write_bench)


def bench_file(tmp_path, fname, lat=10.0, tput=100.0, config=None,
               extra=None):
    recs = [BenchRecord(
        figure="fig04", name="latency", scale="small",
        config=config or {"sizes": [64]},
        metrics={"lat_us.busy.64": metric(lat, "us", "lower"),
                 "tput_kops.64": metric(tput, "kops", "higher"),
                 "cells": metric(42, "cells", "none")})]
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
    cur = bench_file(tmp_path, "cur.json", lat=12.0)   # +20% > 10% tol
    assert cbr.main([base, cur]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "lat_us.busy.64" in out


def test_degraded_throughput_fails(tmp_path):
    base = bench_file(tmp_path, "base.json", tput=100.0)
    cur = bench_file(tmp_path, "cur.json", tput=80.0)  # -20% > 10% tol
    assert cbr.main([base, cur]) == 1


def test_within_tolerance_passes(tmp_path):
    base = bench_file(tmp_path, "base.json", lat=10.0, tput=100.0)
    cur = bench_file(tmp_path, "cur.json", lat=10.5, tput=96.0)
    assert cbr.main([base, cur]) == 0


def test_override_tolerance(tmp_path):
    base = bench_file(tmp_path, "base.json", lat=10.0)
    cur = bench_file(tmp_path, "cur.json", lat=12.0)
    # A 25% latency tolerance forgives the 20% slip.
    assert cbr.main([base, cur, "--override", "lat_us.*=0.25"]) == 0
    # But tightening the default to 5% keeps other metrics gated.
    assert cbr.main([base, cur, "--tolerance", "0.05",
                     "--override", "lat_us.*=0.25"]) == 0


def test_informational_metrics_never_gate(tmp_path):
    base = bench_file(tmp_path, "base.json")
    cur_path = tmp_path / "cur.json"
    recs = [BenchRecord(
        figure="fig04", name="latency", scale="small",
        config={"sizes": [64]},
        metrics={"lat_us.busy.64": metric(10.0, "us", "lower"),
                 "tput_kops.64": metric(100.0, "kops", "higher"),
                 "cells": metric(9999, "cells", "none")})]
    write_bench(recs, str(cur_path))
    assert cbr.main([base, str(cur_path)]) == 0


def test_config_change_skips_comparison(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json", lat=10.0,
                      config={"sizes": [64]})
    cur = bench_file(tmp_path, "cur.json", lat=99.0,
                     config={"sizes": [64, 512]})
    assert cbr.main([base, cur]) == 0
    assert "config changed" in capsys.readouterr().out


def test_missing_record_fails_the_gate(tmp_path, capsys):
    # A benchmark that silently stops running is a regression: the gate
    # must fail, not shrug (this used to warn-and-pass).
    extra = [BenchRecord(figure="fig05", name="tput", scale="small",
                         metrics={"m": metric(1.0)})]
    base = bench_file(tmp_path, "base.json", extra=extra)
    cur = bench_file(tmp_path, "cur.json")
    assert cbr.main([base, cur]) == 1
    out = capsys.readouterr().out
    assert "MISSING" in out and "missing from current run" in out
    assert "FAIL" in out


def test_missing_metric_fails_the_gate(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json")
    cur_path = tmp_path / "cur.json"
    recs = [BenchRecord(
        figure="fig04", name="latency", scale="small",
        config={"sizes": [64]},
        metrics={"lat_us.busy.64": metric(10.0, "us", "lower")})]
    write_bench(recs, str(cur_path))                 # tput_kops.64 vanished
    assert cbr.main([base, str(cur_path)]) == 1
    assert "metric tput_kops.64 missing" in capsys.readouterr().out


def test_allow_missing_downgrades_to_warning(tmp_path, capsys):
    extra = [BenchRecord(figure="fig05", name="tput", scale="small",
                         metrics={"m": metric(1.0)})]
    base = bench_file(tmp_path, "base.json", extra=extra)
    cur = bench_file(tmp_path, "cur.json")
    assert cbr.main([base, cur, "--allow-missing"]) == 0
    out = capsys.readouterr().out
    assert "WARNING" in out and "PASS" in out


def test_exact_passes_only_identical_values(tmp_path, capsys):
    base = bench_file(tmp_path, "base.json")
    assert cbr.main([base, bench_file(tmp_path, "same.json"), "--exact"]) == 0
    assert "PASS: every record and metric is equal" in \
        capsys.readouterr().out
    # better by a hair, well inside any tolerance: still a difference
    cur = bench_file(tmp_path, "cur.json", lat=9.999999, tput=100.0000001)
    assert cbr.main([base, cur]) == 0
    capsys.readouterr()
    assert cbr.main([base, cur, "--exact"]) == 1
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
        metrics={"lat_us.busy.64": metric(10.0, "us", "lower"),
                 "tput_kops.64": metric(100.0, "kops", "higher"),
                 "cells": metric(43, "cells", "none"),
                 "new_metric": metric(1.0)})], str(cur_path))
    assert cbr.main([base, str(cur_path), "--exact"]) == 1
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("DIFFERS")]
    old, new = config_hash({"sizes": [64]}), config_hash({"sizes": [64, 512]})
    assert lines == [
        f"DIFFERS fig04/latency/small: config {old} -> {new}",
        "DIFFERS fig04/latency/small cells: 42.0 -> 43.0",
        "DIFFERS fig04/latency/small new_metric: missing from the baseline",
        "DIFFERS fig05/tput/small: missing from the current run",
    ]


def test_summary_markdown_worst_offenders_first(tmp_path):
    extra = [BenchRecord(figure="fig05", name="tput", scale="small",
                         metrics={"m": metric(1.0)})]
    base = bench_file(tmp_path, "base.json", lat=10.0, tput=100.0,
                      extra=extra)
    # lat +100% (worst), tput -15% (second), and one missing record.
    cur = bench_file(tmp_path, "cur.json", lat=20.0, tput=85.0)
    summary = tmp_path / "summary.md"
    assert cbr.main([base, cur, "--summary", str(summary)]) == 1
    text = summary.read_text()
    assert "FAIL" in text and "2 regressed" in text and "1 missing" in text
    body = [ln for ln in text.splitlines() if ln.startswith("|")]
    order = [ln.split("|")[3].strip() for ln in body[2:]]  # metric column
    assert order[0] == "lat_us.busy.64"                    # worst first
    assert order[1] == "tput_kops.64"
    assert "missing from current run" in order[2]


def test_summary_appends_and_reports_pass(tmp_path):
    base = bench_file(tmp_path, "base.json")
    cur = bench_file(tmp_path, "cur.json")
    summary = tmp_path / "summary.md"
    summary.write_text("# earlier step\n")
    assert cbr.main([base, cur, "--summary", str(summary)]) == 0
    text = summary.read_text()
    assert text.startswith("# earlier step")       # appended, not clobbered
    assert "PASS" in text


def test_missing_file_is_usage_error(tmp_path):
    base = bench_file(tmp_path, "base.json")
    assert cbr.main([base, str(tmp_path / "nope.json")]) == 2


def test_invalid_json_is_usage_error(tmp_path):
    base = bench_file(tmp_path, "base.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cbr.main([base, str(bad)]) == 2


def test_bad_override_is_usage_error(tmp_path):
    base = bench_file(tmp_path, "base.json")
    assert cbr.main([base, base, "--override", "no-equals"]) == 2
