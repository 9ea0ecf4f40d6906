"""Measurement harness shared by tests and the paper-figure benchmarks."""

from repro.bench.stats import LatencyStats, percentile
from repro.bench.harness import (
    Phase,
    PhasedRun,
    PhaseWindow,
    Scenario,
    StormSpec,
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
    "BenchSink",
    "LatencyStats",
    "Phase",
    "PhaseWindow",
    "PhasedRun",
    "SINK",
    "Scenario",
    "StormSpec",
    "config_hash",
    "default_bench_path",
    "load_bench",
    "metric",
    "percentile",
    "write_bench",
]
