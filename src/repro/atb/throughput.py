"""ATB Echo benchmark (drives Figures 11 and 12).

N client connections spread over the cluster's client nodes hammer one
server's ``Echo`` RPC.  HatRPC mode carries service-level hints
``perf_goal = goal, concurrency = n_clients``: Figure 11 is the one-client
latency run (Section 5.2), Figure 12 the throughput run, whose plan
switches protocol/polling at the paper's thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atb.harness import EchoHandler, connect_stub, start_server
from repro.atb.idl import load_atb_module
from repro.bench.loop import run_closed_loop
from repro.bench.stats import LatencyStats
from repro.sim.units import KiB
from repro.testbed import Testbed

__all__ = ["ThroughputBenchmark", "ThroughputResult"]


@dataclass
class ThroughputResult:
    ops_per_sec: float
    latency: LatencyStats


@dataclass
class ThroughputBenchmark:
    mode: str = "hatrpc"
    payload: int = 512
    n_clients: int = 16
    iters: int = 20
    warmup: int = 5
    #: the service's ``perf_goal`` hint: "latency" or "throughput"
    goal: str = "throughput"
    #: per-connection in-flight window; >1 switches each client from
    #: blocking call/response to the pipelined async path
    outstanding: int = 1

    def run(self) -> ThroughputResult:
        tb = Testbed(n_nodes=10)
        gen = load_atb_module(goal=self.goal, payload=self.payload,
                              concurrency=self.n_clients)
        max_msg = self.payload + 8 * KiB
        handler = EchoHandler(tb.node(0), resp_payload=self.payload)
        start_server(tb, gen, handler, self.mode, self.n_clients, max_msg,
                     window=self.outstanding)
        payload = bytes(i % 251 for i in range(self.payload))
        pipelined = self.outstanding > 1

        def connect(node, _i):
            stub = yield from connect_stub(tb, node, gen, self.mode,
                                           self.n_clients, max_msg,
                                           window=self.outstanding)
            # Pipelined: keep up to `outstanding` Echoes in flight on one
            # connection; the engine's window provides the backpressure.
            return stub._hatrpc.async_caller() if pipelined else stub

        def call(conn, _i, _k):
            if pipelined:
                return (yield from conn.call_async("Echo", payload))
            resp = yield from conn.Echo(payload)
            if len(resp) != self.payload:
                raise AssertionError(
                    f"Echo answered {len(resp)} bytes, not {self.payload}")
            return "Echo"

        loop = run_closed_loop(tb.sim, tb.nodes[1:], self.n_clients,
                               self.warmup, self.iters, connect, call,
                               pipelined=pipelined)
        return ThroughputResult(ops_per_sec=loop.throughput,
                                latency=loop.stats["Echo"])
