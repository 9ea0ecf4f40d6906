"""Measurement harness shared by tests and the paper-figure benchmarks."""

from repro.bench.stats import LatencyStats, percentile
from repro.bench.harness import (
    Phase,
    PhasedRun,
    PhaseWindow,
    Scenario,
    StormSpec,
)
from repro.bench.proto_runner import (
    BenchResult,
    ProtoBenchSpec,
    run_protocol_bench,
)
from repro.bench.report import (
    SINK,
    BenchRecord,
    BenchSink,
    config_hash,
    default_bench_path,
    load_bench,
    metric,
    write_bench,
)

__all__ = [
    "BenchRecord",
    "BenchResult",
    "BenchSink",
    "LatencyStats",
    "Phase",
    "PhaseWindow",
    "PhasedRun",
    "ProtoBenchSpec",
    "SINK",
    "Scenario",
    "StormSpec",
    "config_hash",
    "default_bench_path",
    "load_bench",
    "metric",
    "percentile",
    "run_protocol_bench",
    "write_bench",
]
