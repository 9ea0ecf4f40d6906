"""Phased YCSB-B over the sharded cluster: the full observability stack.

One long(ish) run exercising everything the phased harness composes:

* a 2-shard HatKV cluster with admission control and *stale* declared
  concurrency hints (4, vs ~96 observed engines) so the shared
  :class:`~repro.core.tuner.HintTuner` provably switches polling modes
  mid-run -- every decision lands as a ``tuner_decision`` annotation;
* a :class:`~repro.obs.timeseries.MetricsSampler` streaming JSONL
  samples (phase-tagged) with counter rates, histogram percentile
  deltas, and the live ``hatkv.keys.shard<i>`` balance probe;
* an :class:`~repro.bench.harness.StormSpec` placed 1 ms into the
  MEASUREMENT window: 96 background clients slam the gate, the
  rejection-rate series yields ``admission_shed_start/end`` wave
  annotations, and the GET p99 SLO (50 us sustained 300 us, scoped to
  the measurement phase) fires **exactly one** sustained violation that
  recovers when the storm ends;
* per-phase BenchRecords whose MEASUREMENT numbers provably exclude
  warmup (ops are attributed to the phase they *started* in).

The run's workload cell is one :class:`~repro.bench.harness.Scenario`,
whose ``config()`` is the phase records' config.
"""

import json
import os
import tempfile

import pytest

from benchmarks.figutil import emit_bench, fmt_rows, kops
from repro import obs
from repro.bench import Phase, PhasedRun, Scenario, StormSpec, metric
from repro.overload import AdmissionConfig
from repro.core.tuner import HintTuner, TunerConfig
from repro.hatkv import ShardedKVCluster
from repro.obs import JsonlSink, MetricsRegistry, MetricsSampler, SloSpec, \
    SloWatchdog, read_stream
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.ycsb import WORKLOAD_B, run_ycsb_phased, scenario_spec

SHARDS = 2
N_CLIENTS = 48
N_CLIENT_NODES = 8
DECLARED_CONCURRENCY = 4         # deliberately stale: the tuner must switch
# Admission gate capacity per shard: above the base load (N_CLIENTS over
# SHARDS = 24 a shard), so GETs meet the SLO until the storm's 96 clients
# arrive -- the one violation is the storm's.
CAPACITY = 32
WARMUP = 1 * ms
MEASURE = 4 * ms
COOLDOWN = 0.5 * ms
SAMPLE_EVERY = 100 * us
SLO_GET_P99 = 50 * us
SLO_SUSTAIN = 300 * us
VNODES = 256
RING_SEED = 3

#: Default skew/value-size, with a mid-measurement storm.
SCENARIO = Scenario("zipf0.99/v100/storm96", skew=0.99, value_size=100,
                    storm=StormSpec(at=1 * ms, duration=1.5 * ms,
                                    clients=96))


def _stream_path() -> str:
    """CI sets REPRO_STREAM_OUT to keep the stream as an artifact."""
    out = os.environ.get("REPRO_STREAM_OUT")
    if out:
        return out
    return os.path.join(tempfile.gettempdir(), "phased_ycsb_stream.jsonl")


def _run():
    scenario = SCENARIO
    spec = scenario_spec(WORKLOAD_B, scenario)
    reg = MetricsRegistry()
    with obs.installed(reg):
        tb = Testbed(n_nodes=SHARDS + 9)
        cluster = ShardedKVCluster(
            tb, SHARDS, concurrency=DECLARED_CONCURRENCY, vnodes=VNODES,
            ring_seed=RING_SEED, admission=AdmissionConfig(capacity=CAPACITY),
            tunable=True).start()
        sampler = MetricsSampler(tb.sim, reg, interval=SAMPLE_EVERY,
                                 sink=JsonlSink(_stream_path()))
        run = PhasedRun(tb.sim, name=f"ycsb_b/{scenario.name}",
                        warmup=WARMUP, measurement=MEASURE,
                        cooldown=COOLDOWN, registry=reg, sampler=sampler)
        watchdog = SloWatchdog(
            [SloSpec("get-p99", "bench.op_latency.get.p99", "<", SLO_GET_P99,
                     sustain=SLO_SUSTAIN, phases=(Phase.MEASUREMENT.value,),
                     description="GET tail under storm")],
            registry=reg).attach(sampler)
        tuner = HintTuner(TunerConfig(concurrency_source="observed",
                                      epoch_samples=32, min_samples=16,
                                      confirm_epochs=2))
        run.watch_tuner(tuner)
        for s in cluster.servers:
            run.watch_admission(s.rpc.gate, label=f"shard{s.shard}")

        def connect(node):
            router = yield from cluster.connect(node, tunable=True,
                                                tuner=tuner)
            return router

        run_ycsb_phased(cluster, connect, spec, testbed=tb, run=run,
                        n_clients=N_CLIENTS, n_client_nodes=N_CLIENT_NODES,
                        storm=scenario.storm)
    report = watchdog.report()
    slo_out = os.environ.get("REPRO_SLO_REPORT")
    if slo_out:
        with open(slo_out, "w") as f:
            json.dump(report, f, indent=2)
    return run, watchdog, tuner, list(read_stream(_stream_path()))


def test_phased_ycsb_b_storm(benchmark):
    run, watchdog, tuner, stream = benchmark.pedantic(
        _run, rounds=1, iterations=1)

    samples = [r for r in stream if r.get("type") == "sample"]
    kinds = {}
    for r in stream:
        if r.get("type") == "event":
            kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    violations = watchdog.violations

    fmt_rows(f"Phased YCSB-B ({SHARDS} shards, {N_CLIENTS} clients, "
             f"storm {SCENARIO.storm.clients} clients mid-measurement)",
             ["phase", "ops", "throughput"],
             [[w.phase.value, run.ops(w.phase),
               kops(run.throughput(w.phase))] for w in run.windows])
    fmt_rows("Stream + SLO digest",
             ["samples", "tuner switches", "shed waves", "violations"],
             [[len(samples), kinds.get("tuner_decision", 0),
               kinds.get("admission_shed_start", 0), len(violations)]])

    benchmark.extra_info["annotations"] = kinds
    run.emit_phase_records("phased", "ycsb_b_storm",
                           config=SCENARIO.config())
    emit_bench("phased", "ycsb_b_storm_stream",
               {"stream_samples": metric(len(samples), unit="samples"),
                "tuner_decisions": metric(
                    kinds.get("tuner_decision", 0), unit="events"),
                "slo_violations": metric(len(violations), unit="events")},
               config={"shards": SHARDS, "n_clients": N_CLIENTS,
                       "declared_concurrency": DECLARED_CONCURRENCY,
                       "capacity": CAPACITY,
                       "slo_get_p99_us": SLO_GET_P99 / us})

    # -- the acceptance gates ------------------------------------------------
    # Phase attribution: every recorded op landed in a known phase, warmup
    # did real work, and MEASUREMENT throughput counts only its own ops.
    assert run.unattributed == 0
    assert run.ops(Phase.WARMUP) > 0
    assert run.ops(Phase.MEASUREMENT) > 0
    meas = run.window(Phase.MEASUREMENT)
    assert meas.duration == pytest.approx(MEASURE)
    # The live stream: phase-tagged samples at the configured cadence.
    assert len(samples) >= 20, f"only {len(samples)} samples streamed"
    assert all("phase" in r["tags"] for r in samples)
    # Stale declared hints + observed concurrency -> the tuner switched,
    # and every switch is annotated in the stream.
    assert kinds.get("tuner_decision", 0) >= 1
    assert any(d.kind == "switch" for d in tuner.decisions)
    # The storm registered: armed at MEASUREMENT entry, shed wave seen.
    assert kinds.get("storm_armed", 0) == 1
    assert kinds.get("storm_start", 0) == 1 and kinds.get("storm_end", 0) == 1
    assert kinds.get("admission_shed_start", 0) >= 1
    # Exactly one sustained SLO violation, attributed to MEASUREMENT, and
    # it recovered once the storm drained.
    assert len(violations) == 1, [v.slo for v in violations]
    v = violations[0]
    assert v.phase == Phase.MEASUREMENT.value
    assert meas.start <= v.t < meas.end
    assert v.recovered_t is not None and v.recovered_t > v.t
    assert not watchdog.report()["ok"]
    # Live key-balance probe made it into the stream (fresh, not stale).
    last = samples[-1]["metrics"]
    shard_keys = [last.get(f"hatkv.keys.shard{i}") for i in range(SHARDS)]
    assert all(k is not None and k > 0 for k in shard_keys)
