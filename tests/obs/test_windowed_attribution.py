"""WindowedAttribution: the ring-buffered live feed behind the tuner."""

import pytest

from repro.obs.attribution import WindowedAttribution


def test_stats_over_exact_window():
    w = WindowedAttribution(window=8)
    for v in (1.0, 2.0, 3.0, 4.0):
        w.observe("k", "call", v)
    st = w.stats("k", "call")
    assert st.count == 4
    assert st.p50 == 2.0
    assert st.p95 == 4.0
    assert st.mean == pytest.approx(2.5)
    assert st.total == pytest.approx(10.0)


def test_window_evicts_oldest_samples():
    w = WindowedAttribution(window=4)
    for v in range(100):
        w.observe("k", "call", float(v))
    st = w.stats("k", "call")
    assert st.count == 4
    assert st.p50 == 97.0            # only 96..99 remain


def test_keys_and_stages_are_independent():
    w = WindowedAttribution()
    w.observe(("fn", "<=256B"), "call", 1.0)
    w.observe(("fn", ">64KiB"), "call", 9.0)
    w.observe(("fn", "<=256B"), "poll", 5.0)
    assert w.stats(("fn", "<=256B"), "call").p50 == 1.0
    assert w.stats(("fn", ">64KiB"), "call").p50 == 9.0
    assert w.stats(("fn", "<=256B"), "poll").p50 == 5.0
    assert w.stats(("fn", "<=256B"), "network") is None
    assert w.stats("missing", "call") is None


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        WindowedAttribution(window=0)
