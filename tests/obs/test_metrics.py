"""Unit tests for the metrics registry and its instruments."""

import pytest

from repro import obs
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_basics():
    c = Counter("x")
    assert c.value == 0
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_gauge_high_water():
    g = Gauge("depth")
    g.inc(3)
    g.dec()
    g.inc()
    assert g.value == 3
    assert g.high_water == 3
    g.set(10)
    assert g.high_water == 10


def test_histogram_summary_and_percentiles():
    h = Histogram("lat", lowest=1.0)
    for v in (1.0, 2.0, 4.0, 8.0):
        h.record(v)
    s = h.summary()
    assert s["count"] == 4
    assert s["min"] == 1.0 and s["max"] == 8.0
    assert s["mean"] == pytest.approx(3.75)
    # Reported percentiles are bucket upper edges clamped to observed range.
    assert 1.0 <= s["p50"] <= 8.0
    assert s["p99"] == 8.0


def test_histogram_empty():
    h = Histogram("lat")
    assert h.summary() == {"count": 0}
    for attr in ("mean", "min", "max"):
        with pytest.raises(ValueError, match="no samples"):
            getattr(h, attr)
    with pytest.raises(ValueError, match="no samples"):
        h.percentile(50)


def test_histogram_rejects_bad_input():
    h = Histogram("lat")
    with pytest.raises(ValueError):
        h.record(-1.0)
    h.record(0.5)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_registry_get_or_create():
    reg = MetricsRegistry()
    c1 = reg.counter("a.b")
    c2 = reg.counter("a.b")
    assert c1 is c2
    h1 = reg.histogram("a.h")
    assert reg.histogram("a.h") is h1


def test_registry_snapshot_nesting():
    reg = MetricsRegistry()
    reg.counter("proto.rc.ops").inc(3)
    reg.gauge("engine.ch0.inflight").set(2)
    reg.histogram("engine.lat").record(1e-6)
    snap = reg.snapshot()
    assert snap["counters"]["proto"]["rc"]["ops"] == 3
    assert snap["gauges"]["engine"]["ch0"]["inflight"]["value"] == 2
    assert snap["histograms"]["engine"]["lat"]["count"] == 1


def test_registry_probe_groups_sum():
    reg = MetricsRegistry()
    reg.probe("faults", lambda: {"injected": 1, "recovered": 0})
    reg.probe("faults", lambda: {"injected": 2, "recovered": 5})
    vals = reg.probe_values()
    assert vals["faults"] == {"injected": 3, "recovered": 5}


def test_install_current_uninstall():
    assert obs.current() is None
    reg = MetricsRegistry()
    obs.install(reg)
    try:
        assert obs.current() is reg
    finally:
        obs.uninstall()
    assert obs.current() is None


def test_installed_context_manager():
    with obs.installed() as reg:
        assert obs.current() is reg
        reg.counter("x").inc()
    assert obs.current() is None


def test_flat_values():
    reg = MetricsRegistry()
    reg.counter("a").inc(7)
    flat = reg.flat_values()
    assert flat["a"] == 7
