"""Property tests for the telemetry substrate: counter-rate computation
across counter restarts, read from the dicts the ``on_sample`` hooks
receive and from the JSONL stream that is the run's record."""

import io
import math

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (JsonlSink, MetricsSampler, read_stream,
                                  summarize_stream)
from repro.sim.core import Simulator

INTERVAL = 1.0


# -- counter-rate windows ----------------------------------------------------

# Each step is one sampling window: either a monotone increment or a
# counter restart (the instrumented component "rebooted" to a fresh,
# usually smaller, value).
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.integers(0, 1000)),
        st.tuples(st.just("restart"), st.integers(0, 50)),
    ),
    min_size=1, max_size=40)


def _expected_rates(steps):
    """The model: delta/dt per window, where a backwards-moving counter is
    treated as restarted and its whole current value is the delta."""
    prev = cur = 0.0
    out = []
    for kind, val in steps:
        cur = cur + val if kind == "inc" else float(val)
        delta = cur - prev if cur >= prev else cur
        out.append(delta / INTERVAL)
        prev = cur
    return out


def _run_sampler(steps):
    """The ``(t, x.rate)`` pairs the sampler hands its hooks."""
    sim = Simulator()
    reg = MetricsRegistry()
    c = reg.counter("x")
    sampler = MetricsSampler(sim, reg, interval=INTERVAL)
    seen = []
    sampler.on_sample.append(
        lambda t, metrics, tags: seen.append((t, metrics["x.rate"])))

    def driver():
        # mutate mid-window so the mutation/sample order at tick
        # boundaries is never ambiguous
        yield sim.timeout(INTERVAL / 2)
        for kind, val in steps:
            if kind == "inc":
                c.inc(val)
            else:
                c.value = val
            yield sim.timeout(INTERVAL)

    sampler.start()
    sim.process(driver())
    sim.run(until=(len(steps) + 0.75) * INTERVAL)
    sampler.stop(final_sample=False)
    return seen


@given(_steps)
@settings(max_examples=60, deadline=None)
def test_counter_rate_windows_and_restart_guard(steps):
    seen = _run_sampler(steps)
    expected = _expected_rates(steps)
    assert len(seen) == len(expected)
    for i, ((t, got), want) in enumerate(zip(seen, expected)):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
        # each window's rate is stamped with its tick instant
        assert math.isclose(t, (i + 1) * INTERVAL, rel_tol=1e-9)


@given(_steps)
@settings(max_examples=60, deadline=None)
def test_counter_rates_survive_ring_wraparound(steps):
    """The sampler keeps no series ring that could wrap: the JSONL stream
    is the record, and it must carry every window's rate verbatim, oldest
    first, with each point stamped at its tick instant."""
    buf = io.StringIO()
    sim = Simulator()
    reg = MetricsRegistry()
    c = reg.counter("x")
    sampler = MetricsSampler(sim, reg, interval=INTERVAL,
                             sink=JsonlSink(buf))

    def driver():
        yield sim.timeout(INTERVAL / 2)
        for kind, val in steps:
            if kind == "inc":
                c.inc(val)
            else:
                c.value = val
            yield sim.timeout(INTERVAL)

    sampler.start()
    sim.process(driver())
    sim.run(until=(len(steps) + 0.75) * INTERVAL)
    sampler.stop(final_sample=False)
    buf.seek(0)
    records = read_stream(buf)
    samples = [r for r in records if r["type"] == "sample"]
    expected = _expected_rates(steps)
    assert len(samples) == len(expected)
    for i, (rec, want) in enumerate(zip(samples, expected)):
        assert math.isclose(rec["metrics"]["x.rate"], want,
                            rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(rec["t"], (i + 1) * INTERVAL, rel_tol=1e-9)
    summary = summarize_stream(records)
    assert summary["series"]["x.rate"]["n"] == len(expected)
