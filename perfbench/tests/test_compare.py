"""``compare`` verdicts on hand-made run documents."""

import copy
import json

from perfbench.compare import compare, compare_files

DECLARED = [
    {"name": "sim_kops", "unit": "kops/s", "better": "higher", "bound": 0.01},
    {"name": "sim_p50_us", "unit": "us", "better": "lower", "bound": 0.01},
    {"name": "host_us_per_op", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def run_doc(seed=0, spread=0.02, digest="d" * 64, **values):
    base = {"sim_kops": 100.0, "sim_p50_us": 10.0, "host_us_per_op": 500.0,
            "setup_s": 2.0, "fail_share": 0.0}
    base.update(values)
    metrics = {k: {"value": v, "unit": "x", "n": 3} for k, v in base.items()}
    metrics["perfbench.repeat_spread"] = {"value": spread, "unit": "ratio",
                                          "n": 3}
    return {"provenance": {"seed": seed}, "comparable": True,
            "workloads": {"w": {"sim_digest": digest, "metrics": metrics}}}


def verdicts(a, b):
    return {row[1]: row[-1] for row in compare(a, b, DECLARED)}


def test_identical_runs_are_ok():
    assert set(verdicts(run_doc(), run_doc()).values()) == {"ok"}


def test_host_metric_within_and_beyond_its_bound():
    v = verdicts(run_doc(), run_doc(host_us_per_op=545.0, setup_s=2.6))
    assert v["host_us_per_op"] == "ok"          # +9 % of a 10 % bound
    assert v["setup_s"] == "regressed"          # +30 % of a 25 % bound
    v = verdicts(run_doc(), run_doc(host_us_per_op=300.0))
    assert v["host_us_per_op"] == "ok"          # better is never a regression


def test_wide_repeat_spread_makes_host_metrics_unresolved():
    v = verdicts(run_doc(), run_doc(spread=0.15, host_us_per_op=900.0))
    assert v["host_us_per_op"] == "unresolved"  # 15 % spread > 10 % bound
    assert v["setup_s"] == "ok"                 # 15 % spread < 25 % bound
    assert v["sim_kops"] == "ok"                # the sim clock has no spread


def test_sim_clock_must_repeat_exactly_at_equal_seed():
    v = verdicts(run_doc(), run_doc(sim_p50_us=10.0000001, digest="e" * 64))
    assert v["sim_p50_us"] == "regressed"
    assert v["sim_digest"] == "regressed"
    assert v["sim_kops"] == "ok"
    v = verdicts(run_doc(seed=0), run_doc(seed=1, sim_p50_us=11.0))
    assert v["sim_p50_us"] == v["sim_kops"] == "unresolved"
    assert "sim_digest" not in v                # not comparable across seeds


def test_any_new_failure_regresses():
    assert verdicts(run_doc(), run_doc(fail_share=1e-4))["fail_share"] \
        == "regressed"


def test_exit_codes(tmp_path, capsys):
    decl = {"end_to_end": DECLARED}
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(run_doc()))
    b.write_text(json.dumps(run_doc(host_us_per_op=700.0)))
    scaled = copy.deepcopy(run_doc())
    scaled["comparable"] = False
    c.write_text(json.dumps(scaled))
    assert compare_files(str(a), str(a), decl) == 0
    assert compare_files(str(a), str(b), decl) == 1
    assert "w host_us_per_op 500 700 +40.00% 10% regressed" \
        in capsys.readouterr().out
    assert compare_files(str(a), str(c), decl) == 2
