"""YCSB: the Yahoo! Cloud Serving Benchmark core, extended per Section 5.4.

A faithful reimplementation of the YCSB pieces the paper uses:

* the standard request-distribution generators (zipfian with the
  Gray et al. incremental algorithm, scrambled zipfian, uniform, latest);
* the core workload geometry (24-byte keys, 10 fields x 100 bytes);
* workloads A and B extended with MultiGET/MultiPUT at batch size 10 --
  the paper halves the original GET/PUT proportions in favor of the Multi
  variants (A: 25/25/25/25; B: 47.5/2.5/47.5/2.5);
* a bulk load + a phased run (warmup, measurement, cooldown) against any
  KV stub.
"""

from repro.ycsb.generators import (
    DiscreteGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
)
from repro.ycsb.workload import (OpType, Workload, WORKLOAD_A, WORKLOAD_B,
                                 WORKLOAD_C, WORKLOAD_D, WORKLOAD_E)
from repro.ycsb.phased import (YcsbResult, measurement_result,
                               run_ycsb_phased, scenario_spec)

__all__ = [
    "DiscreteGenerator",
    "LatestGenerator",
    "OpType",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "WORKLOAD_A",
    "WORKLOAD_B",
    "WORKLOAD_C",
    "WORKLOAD_D",
    "WORKLOAD_E",
    "Workload",
    "YcsbResult",
    "ZipfianGenerator",
    "measurement_result",
    "run_ycsb_phased",
    "scenario_spec",
]
