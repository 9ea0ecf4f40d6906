"""Histogram-restart visibility in the sampler stream.

Regression: when a histogram's count went backwards between samples (the
instrumented component restarted), the sampler silently substituted the
full post-restart state for the window delta -- the splice was
indistinguishable from a clean window in the stream.  It now emits a
``histogram_restart`` annotation and a cumulative ``<name>.restarts``
series next to the tainted one.  The series are read from the dicts the
``on_sample`` hooks receive.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import JsonlSink, MetricsSampler
from repro.sim.core import Simulator

INTERVAL = 1.0


def _restart(h):
    """What a component reboot looks like to the sampler: the histogram
    object is re-created, i.e. its cumulative state snaps back."""
    h.count = 0
    h.total = 0.0
    h.buckets.clear()


def _hooked(sampler):
    """Every per-tick metrics dict the sampler hands its hooks."""
    ticks = []
    sampler.on_sample.append(lambda t, metrics, tags: ticks.append(metrics))
    return ticks


def _series(ticks, name):
    return [m[name] for m in ticks if name in m]


def test_histogram_restart_is_annotated_and_counted(tmp_path):
    sim = Simulator()
    reg = MetricsRegistry()
    h = reg.histogram("rpc.lat")
    path = tmp_path / "stream.jsonl"
    sink = JsonlSink(path)
    sampler = MetricsSampler(sim, reg, interval=INTERVAL, sink=sink)
    ticks = _hooked(sampler)

    def driver():
        for _ in range(3):
            h.record(2e-6)
        yield sim.timeout(1.5)              # window 1: clean, 3 samples
        _restart(h)
        h.record(4e-6)
        yield sim.timeout(1.0)              # window 2: restarted mid-window
        h.record(8e-6)
        yield sim.timeout(1.0)              # window 3: clean again

    sampler.start()
    sim.process(driver())
    sim.run(until=3.8)
    sampler.stop(final_sample=False)
    sink.close()

    restarts = [e for e in sampler.events if e["kind"] == "histogram_restart"]
    assert len(restarts) == 1
    assert restarts[0]["name"] == "rpc.lat"
    assert restarts[0]["prev_count"] == 3 and restarts[0]["count"] == 1
    # cumulative series appears from the restart on, and stays flat after
    assert _series(ticks, "rpc.lat.restarts") == [1.0, 1.0]
    # the annotation also landed in the stream file for offline readers
    text = path.read_text()
    assert '"histogram_restart"' in text and '"rpc.lat"' in text


def test_first_appearance_of_a_histogram_is_not_a_restart():
    sim = Simulator()
    reg = MetricsRegistry()
    sampler = MetricsSampler(sim, reg, interval=INTERVAL)
    ticks = _hooked(sampler)

    def driver():
        yield sim.timeout(1.2)
        # registered AFTER the sampler primed: first delta covers its
        # whole history, which is correct and not a restart
        h = reg.histogram("late.lat")
        h.record(1e-6)
        yield sim.timeout(1.0)

    sampler.start()
    sim.process(driver())
    sim.run(until=2.8)
    sampler.stop(final_sample=False)

    assert [e for e in sampler.events if e["kind"] == "histogram_restart"] \
        == []
    assert _series(ticks, "late.lat.rate") == [1.0]
    assert _series(ticks, "late.lat.restarts") == []


def test_restart_still_reports_post_restart_window_rates():
    # The splice substitutes post-restart state for the delta (the best
    # available answer); the fix adds visibility, it must not change the
    # numbers themselves.
    sim = Simulator()
    reg = MetricsRegistry()
    h = reg.histogram("x")
    sampler = MetricsSampler(sim, reg, interval=INTERVAL)
    ticks = _hooked(sampler)

    def driver():
        for _ in range(5):
            h.record(1e-6)
        yield sim.timeout(1.5)
        _restart(h)
        h.record(3e-6)
        h.record(3e-6)
        yield sim.timeout(1.0)

    sampler.start()
    sim.process(driver())
    sim.run(until=2.8)
    sampler.stop(final_sample=False)

    rates = _series(ticks, "x.rate")
    assert rates[0] == 5.0
    assert rates[1] == 2.0                  # the post-restart count
    means = _series(ticks, "x.mean")
    assert means[1] == 3e-6
