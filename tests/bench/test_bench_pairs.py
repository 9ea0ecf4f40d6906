"""scripts/bench_pairs.py: the gain verdict and the sim-equality gate, on
hand-made numbers (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

PARENT = [180.0, 176.0, 182.0, 179.0, 178.0, 181.0, 177.0, 180.0, 183.0,
          179.0]          # median 179.5, Q1 178.25, Q3 180.75: IQR 2.5


def test_ten_of_ten_and_clear_of_the_iqr_is_a_gain():
    tree = [p - 18 for p in PARENT]
    v = bp.verdict(PARENT, tree, "lower")
    assert v["won"] == 10 and v["gain"]
    assert v["parent"] == (178.25, 179.5, 180.75)
    assert v["change"] == pytest.approx(-18 / 179.5)


def test_nine_of_ten_is_enough_eight_is_not():
    tree = [p - 18 for p in PARENT]
    tree[3] = PARENT[3] + 1                  # one pair lost
    assert bp.verdict(PARENT, tree, "lower")["gain"]
    tree[4] = PARENT[4]                      # a tie is not a win
    v = bp.verdict(PARENT, tree, "lower")
    assert v["won"] == 8 and not v["gain"]


def test_every_pair_won_inside_the_iqr_is_not_a_gain():
    tree = [p - 1 for p in PARENT]           # 1 us better, IQR is 2.5
    v = bp.verdict(PARENT, tree, "lower")
    assert v["won"] == 10 and not v["gain"]


def test_direction_follows_the_declaration():
    tree = [p + 18 for p in PARENT]
    assert not bp.verdict(PARENT, tree, "lower")["gain"]
    v = bp.verdict(PARENT, tree, "higher")
    assert v["won"] == 10 and v["gain"]


def test_unequal_sides_are_refused():
    with pytest.raises(ValueError):
        bp.verdict(PARENT, PARENT[:-1], "lower")


def _run(host, kops=12.5, p50=61.0):
    return {"correct": True, "metrics": {
        "sim_kops": {"value": kops}, "sim_p50_us": {"value": p50},
        "host_us_per_op": {"value": host}}}


def test_sim_values_must_be_one_and_the_same():
    parent = [_run(180.0), _run(181.0)]
    assert bp.sim_mismatches(parent, [_run(160.0), _run(161.0)]) == []
    assert bp.sim_mismatches(parent, [_run(160.0), _run(161.0, p50=61.5)]) \
        == ["sim_p50_us"]


def test_main_exits_nonzero_when_sim_differs(tmp_path, monkeypatch, capsys):
    for name in ("parent", "tree"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({
            "command": ["true"], "end_to_end": [
                {"name": "sim_kops", "unit": "kops/s", "better": "higher"},
                {"name": "host_us_per_op", "unit": "us", "better": "lower"}]}))
    runs = {"parent": iter([_run(180.0), _run(182.0)]),
            "tree": iter([_run(150.0), _run(151.0, kops=12.6)])}
    monkeypatch.setattr(bp, "run_driver",
                        lambda tree, workload, seed: next(runs[tree.name]))
    code = bp.main([str(tmp_path / "parent"), str(tmp_path / "tree"),
                    "--workload", "atb_small", "--pairs", "2"])
    out = capsys.readouterr()
    assert code == 2
    assert "host_us_per_op" in out.out and "won 2/2" in out.out
    assert "sim_kops" in out.err
    # the movement itself, pair by pair, is in the report
    assert "sim_kops pair 0: parent 12.5 tree 12.5 +0.00%" in out.out
    assert "sim_kops pair 1: parent 12.5 tree 12.6 +0.80%" in out.out


def test_sim_report_lists_only_what_differs_pair_by_pair():
    parent = [_run(180.0), _run(181.0)]
    tree = [_run(160.0, p50=63.0), _run(161.0, p50=63.0)]
    assert bp.sim_report(parent, tree) == [
        "      sim_p50_us pair 0: parent 61.0 tree 63.0 +3.28%",
        "      sim_p50_us pair 1: parent 61.0 tree 63.0 +3.28%"]
    assert bp.sim_report(parent, [_run(160.0), _run(161.0)]) == []


def test_every_combination_runs_and_gets_a_table_row(tmp_path, monkeypatch,
                                                     capsys):
    for name in ("parent", "tree"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({
            "command": ["true"], "end_to_end": [
                {"name": "sim_kops", "unit": "kops/s", "better": "higher"},
                {"name": "host_us_per_op", "unit": "us", "better": "lower"}]}))
    calls = []

    def driver(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        host = 180.0 if tree.name == "parent" else 150.0
        # one combination moves the model: the tree's kops differ there
        kops = 12.6 if (tree.name, workload, seed) == ("tree", "b", 7) \
            else 12.5
        return _run(host, kops=kops)

    monkeypatch.setattr(bp, "run_driver", driver)
    argv = [str(tmp_path / "parent"), str(tmp_path / "tree"), "--workload",
            "a", "--workload", "b", "--seed", "0", "--seed", "7",
            "--pairs", "2"]
    code = bp.main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert sorted(set(calls)) == sorted(
        (t, w, s) for t in ("parent", "tree") for w in "ab" for s in (0, 7))
    assert len(calls) == 16
    table = out.out[out.out.index("verdicts:\n"):].splitlines()[1:]
    assert table == [
        "a seed 0: host_us_per_op -16.7% 2/2 GAIN; sim equal",
        "a seed 7: host_us_per_op -16.7% 2/2 GAIN; sim equal",
        "b seed 0: host_us_per_op -16.7% 2/2 GAIN; sim equal",
        "b seed 7: host_us_per_op -16.7% 2/2 GAIN; sim differs: sim_kops"]
    assert "b seed 7: sim values differ" in out.err
    # without the differing combination the same command exits 0
    assert bp.main(argv[:4] + ["--seed", "0", "--pairs", "2"]) == 0
