"""BenchRecord schema: round-trips, config hashing, sink behaviour."""

import json

import pytest

from repro.bench.report import (SCHEMA_VERSION, BenchRecord, BenchSink,
                                config_hash, default_bench_path, load_bench,
                                metric, write_bench)


def rec(**kw):
    kw.setdefault("figure", "fig04")
    kw.setdefault("name", "protocol_latency")
    kw.setdefault("scale", "small")
    kw.setdefault("config", {"sizes": [64, 512]})
    kw.setdefault("metrics", {"lat_us.busy.rc.64": metric(3.2, "us")})
    return BenchRecord(**kw)


def test_config_hash_stable_and_order_insensitive():
    h1 = config_hash({"a": 1, "b": [2, 3]})
    h2 = config_hash({"b": [2, 3], "a": 1})
    assert h1 == h2 and len(h1) == 16
    assert config_hash({"a": 2}) != h1


def test_record_round_trip():
    r = rec(meta={"note": "x"})
    d = r.to_dict()
    assert d["config_hash"] == r.config_hash
    r2 = BenchRecord.from_dict(json.loads(json.dumps(d)))
    assert r2.key == r.key
    assert r2.metrics == r.metrics
    assert r2.config == r.config and r2.meta == r.meta


def test_from_dict_validates():
    with pytest.raises(ValueError, match="missing field"):
        BenchRecord.from_dict({"figure": "f", "name": "n", "scale": "s"})
    with pytest.raises(ValueError, match="no value"):
        BenchRecord.from_dict({"figure": "f", "name": "n", "scale": "s",
                               "metrics": {"m": {"unit": "us"}}})


def test_write_and_load_bench(tmp_path):
    path = tmp_path / "BENCH_x.json"
    write_bench([rec()], str(path))
    doc = json.loads(path.read_text())
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["scale"] == "small"
    records = load_bench(str(path))
    assert len(records) == 1 and records[0].figure == "fig04"


def test_load_bench_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "records": []}))
    with pytest.raises(ValueError, match="schema"):
        load_bench(str(path))


def test_default_bench_path_env(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
    assert default_bench_path() == "BENCH_full.json"
    monkeypatch.setenv("REPRO_BENCH_OUT", "/tmp/custom.json")
    assert default_bench_path() == "/tmp/custom.json"
    monkeypatch.delenv("REPRO_BENCH_SCALE")
    monkeypatch.delenv("REPRO_BENCH_OUT")
    assert default_bench_path() == "BENCH_small.json"


def test_sink_replaces_same_key(tmp_path):
    sink = BenchSink()
    sink.add(rec(metrics={"m": metric(1.0)}))
    sink.add(rec(metrics={"m": metric(2.0)}))
    assert len(sink.records) == 1
    assert sink.records[0].metrics["m"]["value"] == 2.0
    path = sink.flush(str(tmp_path / "out.json"))
    assert path is not None
    assert load_bench(path)[0].metrics["m"]["value"] == 2.0


def test_sink_empty_flush_is_noop(tmp_path):
    sink = BenchSink()
    assert sink.flush(str(tmp_path / "never.json")) is None
    assert not (tmp_path / "never.json").exists()
