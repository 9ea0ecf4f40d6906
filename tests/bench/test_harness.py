"""PhasedRun: phase-boundary attribution, per-phase BenchRecords, and a
fast 2-phase mini-scenario smoke (sampler + SLO watchdog end to end)."""

import pytest

from repro.bench.harness import PHASE_ORDER, Phase, PhasedRun
from repro.bench.report import SINK
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloSpec, SloWatchdog
from repro.obs.timeseries import (JsonlSink, MetricsSampler, read_stream,
                                  summarize_stream)
from repro.sim.core import Simulator
from repro.sim.units import us


def _driven_run(warmup=100 * us, measurement=200 * us, cooldown=50 * us,
                **kw):
    sim = Simulator()
    run = PhasedRun(sim, "t", warmup=warmup, measurement=measurement,
                    cooldown=cooldown, **kw)
    driver = sim.process(run.drive())
    sim.run(until=driver)
    return sim, run


# -- phase-boundary attribution ---------------------------------------------

def test_op_straddling_warmup_boundary_counts_as_warmup():
    _, run = _driven_run()
    m = run.window(Phase.MEASUREMENT)
    # starts 1us before MEASUREMENT opens, completes 10us into it:
    # start-time attribution keeps it out of the measured window
    run.record("get", 11 * us, start=m.start - 1 * us)
    assert run.ops(Phase.WARMUP) == 1
    assert run.ops(Phase.MEASUREMENT) == 0
    assert run.throughput(Phase.MEASUREMENT) == 0.0


def test_boundary_instant_is_start_inclusive_to_the_later_phase():
    _, run = _driven_run()
    m = run.window(Phase.MEASUREMENT)
    run.record("get", 5 * us, start=m.start)
    assert run.ops(Phase.MEASUREMENT) == 1
    assert run.ops(Phase.WARMUP) == 0


def test_op_straddling_measurement_end_counts_as_measurement():
    _, run = _driven_run()
    m = run.window(Phase.MEASUREMENT)
    run.record("get", 20 * us, start=m.end - 1 * us)
    assert run.ops(Phase.MEASUREMENT) == 1
    assert run.ops(Phase.COOLDOWN) == 0


def test_ops_outside_every_window_are_unattributed():
    _, run = _driven_run()
    end = run.window(Phase.COOLDOWN).end
    run.record("get", 1 * us, start=-1 * us)
    run.record("get", 1 * us, start=end + 1 * us)
    assert run.unattributed == 2
    assert all(run.ops(p) == 0 for p in PHASE_ORDER)


def test_default_start_is_now_minus_latency():
    sim, run = _driven_run()
    # sim.now is the cooldown close; an op whose latency reaches back into
    # MEASUREMENT attributes there even without an explicit start
    assert sim.now == run.window(Phase.COOLDOWN).end
    run.record("get", run.durations[Phase.COOLDOWN] + 1 * us)
    assert run.ops(Phase.MEASUREMENT) == 1


def test_throughput_counts_only_the_phases_own_ops():
    _, run = _driven_run()
    w = run.window(Phase.WARMUP)
    m = run.window(Phase.MEASUREMENT)
    for i in range(5):
        run.record("get", 1 * us, start=w.start + i * us)
    for i in range(10):
        run.record("get", 1 * us, start=m.start + i * us)
    assert run.ops(Phase.MEASUREMENT) == 10
    assert run.throughput(Phase.MEASUREMENT) == pytest.approx(
        10 / m.duration)
    assert run.throughput(Phase.WARMUP) == pytest.approx(5 / w.duration)


# -- per-phase BenchRecords --------------------------------------------------

def test_emit_phase_records_names_and_gating_directions():
    _, run = _driven_run()
    for phase in (Phase.WARMUP, Phase.MEASUREMENT, Phase.COOLDOWN):
        run.record("get", 2 * us, start=run.window(phase).start)
    saved = list(SINK.records)
    try:
        recs = run.emit_phase_records("figx", name="mini", config={"k": 1})
        by_name = {r.name: r for r in recs}
        assert list(by_name) == ["mini.preparing", "mini.warmup",
                                 "mini.measurement", "mini.cooldown"]
        meas = by_name["mini.measurement"]
        assert meas.meta["phase"] == "measurement"
        assert meas.config == {"k": 1}
        # every phase gets the same cells, and no cell carries a direction
        cells = {"tput_kops", "ops", "duration_us", "lat_us.get.p50",
                 "lat_us.get.p95", "lat_us.get.p99"}
        assert set(by_name["mini.preparing"].metrics) == \
            {"tput_kops", "ops", "duration_us"}
        for rec in recs:
            assert rec.figure == "figx"
            if rec.name != "mini.preparing":
                assert set(rec.metrics) == cells
            for cell in rec.metrics.values():
                assert set(cell) == {"value", "unit"}
    finally:
        SINK.records = saved


def test_phase_metrics_duration_matches_window():
    _, run = _driven_run(measurement=300 * us)
    cells = run.phase_metrics(Phase.MEASUREMENT)
    assert cells["duration_us"]["value"] == pytest.approx(300)


# -- 2-phase mini-scenario smoke ---------------------------------------------

def test_two_phase_mini_scenario_smoke(tmp_path):
    """Tier-1 smoke: a tiny warmup+measurement run with live sampling and
    one deterministic mid-measurement latency spike that must raise
    exactly one sustained-SLO violation, attributed to MEASUREMENT."""
    stream = tmp_path / "mini_stream.jsonl"
    sim = Simulator()
    reg = MetricsRegistry()
    sampler = MetricsSampler(sim, reg, interval=10 * us,
                             sink=JsonlSink(str(stream)))
    watchdog = SloWatchdog(
        [SloSpec("get-p99", "bench.op_latency.get.p99", "<", 50 * us,
                 sustain=50 * us, phases=(Phase.MEASUREMENT.value,))],
        registry=reg).attach(sampler)
    run = PhasedRun(sim, "mini", warmup=200 * us, measurement=600 * us,
                    registry=reg, sampler=sampler, watchdog=watchdog)

    def workload():
        while not run.stopped:
            now = sim.now
            lat = 100 * us if 300 * us <= now < 450 * us else 10 * us
            run.record("get", lat, start=now)
            yield sim.timeout(5 * us)

    driver = sim.process(run.drive())
    sim.process(workload())
    sim.run(until=driver)
    run.stop()
    sim.run()

    # attribution: every op landed in a window
    assert run.unattributed == 0
    assert run.ops(Phase.WARMUP) > 0
    assert run.ops(Phase.MEASUREMENT) > 0
    m = run.window(Phase.MEASUREMENT)
    assert m.duration == pytest.approx(600 * us)

    # exactly one violation, in MEASUREMENT, and it recovered
    violations = watchdog.violations
    assert len(violations) == 1
    v = violations[0]
    assert v.phase == Phase.MEASUREMENT.value
    assert m.start <= v.t < m.end
    assert v.recovered_t is not None and v.recovered_t > v.t
    assert watchdog.report()["ok"] is False

    # the stream round-trips: phase-tagged samples plus the SLO events
    digest = summarize_stream(read_stream(str(stream)))
    assert digest["n_samples"] >= 20
    assert [p for _, p in digest["phases"]][:3] == [
        "preparing", "warmup", "measurement"]
    assert digest["phases"][-1][1] == "done"
    kinds = {}
    for e in digest["events"]:
        kinds[e["kind"]] = kinds.get(e["kind"], 0) + 1
    assert kinds.get("slo_violation") == 1
    assert kinds.get("slo_recovered") == 1
    assert digest["slo"]["get-p99"]["violations"] == 1
