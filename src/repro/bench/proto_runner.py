"""RPC-like protocol benchmarks (the workloads of the paper's Section 3.1).

``run_protocol_bench`` stands up one server node and N client connections
spread across the remaining nodes, runs fixed-size ping-pong RPCs, and
reports latency statistics and aggregate throughput.  It reproduces the
experimental conditions of Figures 4-5 and 11-14:

clients are NUMA-bound while the client count stays within one NUMA
domain (the paper binds for <=16 clients), unbound beyond that; the
warm-up and the measured window are :mod:`repro.bench.loop`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.loop import run_closed_loop
from repro.bench.stats import LatencyStats
from repro.protocols import ProtoConfig, get_protocol
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.verbs.cq import PollMode

__all__ = ["BenchResult", "ProtoBenchSpec", "run_protocol_bench"]

#: the paper binds clients to the NIC's NUMA node up to this count (S5.2)
NUMA_BIND_LIMIT = 16


@dataclass(frozen=True)
class ProtoBenchSpec:
    """One benchmark configuration (one point of a figure)."""

    protocol: str
    payload: int = 512                   # request and response bytes
    n_clients: int = 1
    poll_mode: PollMode = PollMode.BUSY
    iters: int = 30                      # measured calls per client
    warmup: int = 5                      # discarded calls per client
    max_msg: Optional[int] = None        # default: payload + slack


@dataclass
class BenchResult:
    spec: ProtoBenchSpec
    latency: LatencyStats
    throughput_ops: float      # RPCs/second over the measured window
    server_registered_bytes: int
    server_cpu_utilization: float

    @property
    def mean_latency(self) -> float:
        return self.latency.mean


def run_protocol_bench(spec: ProtoBenchSpec) -> BenchResult:
    """One point on a 10-node testbed: node 0 serves, the rest are clients."""
    tb = Testbed(n_nodes=10)
    server_node = tb.node(0)
    cfg = ProtoConfig(poll_mode=spec.poll_mode,
                      max_msg=spec.max_msg or spec.payload + 4 * KiB,
                      numa_local=spec.n_clients <= NUMA_BIND_LIMIT)
    payload = bytes(i % 251 for i in range(spec.payload))
    client_cls, server_cls = get_protocol(spec.protocol)
    server_cls(server_node.nic, 1, lambda _req: payload, cfg).start()

    def connect(node, _i):
        client = client_cls(node.nic, cfg)
        yield from client.connect(server_node, 1)
        return client

    def call(client, _i, _k):
        yield from client.call(payload)

    loop = run_closed_loop(tb.sim, tb.nodes[1:], spec.n_clients,
                           spec.warmup, spec.iters, connect, call)
    return BenchResult(
        spec=spec,
        latency=loop.stats[None],
        throughput_ops=loop.throughput,
        server_registered_bytes=server_node.nic.registered_bytes,
        server_cpu_utilization=server_node.cpu.utilization(
            max(tb.sim.now, 1e-12)),
    )
