"""ATB IDL definitions, parameterized by the experiment's hint values."""

from __future__ import annotations

from repro.idl import load_idl

__all__ = ["atb_idl", "load_atb_module"]


def atb_idl(goal: str = "throughput", payload: int = 512,
            concurrency: int = 1, mix_lat_payload: int = 512,
            mix_tput_payload: int = 512) -> str:
    """The ATB service definition with experiment-specific hints.

    ``Echo`` carries the service-level hints (latency/throughput benches);
    ``LatCall``/``TputCall`` carry function-level hints (mix bench).
    """
    # The paper's runs bind to the NIC's NUMA node up to 16 clients (S5.2);
    # benchmark IDLs state that knowledge as a hint.
    numa = "true" if concurrency <= 16 else "false"
    return f"""
// Apache Thrift Benchmarks (ATB) service, generated per experiment.
service ATBench {{
    hint: perf_goal = {goal}, payload_size = {payload},
          concurrency = {concurrency}, numa_binding = {numa};

    binary Echo(1: binary payload),
    binary LatCall(1: binary payload) [
        hint: perf_goal = latency, payload_size = {mix_lat_payload};
    ]
    binary TputCall(1: binary payload) [
        hint: perf_goal = throughput, payload_size = {mix_tput_payload},
              concurrency = {concurrency};
    ]
}}
"""


def load_atb_module(**kw):
    """Compile the ATB IDL into a fresh module."""
    return load_idl(atb_idl(**kw), "atb_gen")
