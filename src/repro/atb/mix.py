"""ATB mixed-communication benchmark (drives Figures 13-14).

Clients randomly issue one of two RPCs -- ``LatCall`` (hinted latency) and
``TputCall`` (hinted throughput) -- half and half, as the paper does.  The
server computes a payload-proportional checksum per request.  Latency is
reported for the latency calls, throughput for the throughput calls,
exactly as Section 5.3 measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.atb.harness import EchoHandler, connect_stub, start_server
from repro.atb.idl import load_atb_module
from repro.bench.loop import run_closed_loop
from repro.bench.stats import LatencyStats
from repro.sim.units import KiB
from repro.testbed import Testbed

__all__ = ["MixBenchmark", "MixResult"]

#: checksum cost model: bytes per CPU-second (a simple rolling checksum).
CHECKSUM_RATE = 5e9
#: share of calls that are ``LatCall`` (Section 5.3's 50/50 mix)
LAT_RATIO = 0.5


@dataclass
class MixResult:
    lat_stats: LatencyStats          # latency-function calls
    tput_ops_per_sec: float          # throughput-function calls
    tput_stats: LatencyStats


@dataclass
class MixBenchmark:
    mode: str = "hatrpc"
    payload: int = 512
    n_clients: int = 16
    iters: int = 20
    warmup: int = 5
    seed: int = 42

    def run(self) -> MixResult:
        tb = Testbed(n_nodes=10)
        gen = load_atb_module(goal="throughput", payload=self.payload,
                              concurrency=self.n_clients,
                              mix_lat_payload=self.payload,
                              mix_tput_payload=self.payload)
        max_msg = self.payload + 8 * KiB
        handler = EchoHandler(tb.node(0), resp_payload=self.payload,
                              checksum_rate=CHECKSUM_RATE)
        start_server(tb, gen, handler, self.mode, self.n_clients, max_msg)
        payload = bytes(i % 251 for i in range(self.payload))
        rng = random.Random(self.seed)
        # Pre-draw the call schedule so the run is deterministic regardless
        # of process interleaving.
        schedule = [[rng.random() < LAT_RATIO
                     for _ in range(self.warmup + self.iters)]
                    for _ in range(self.n_clients)]

        def connect(node, _i):
            return (yield from connect_stub(tb, node, gen, self.mode,
                                            self.n_clients, max_msg))

        def call(stub, i, k):
            if schedule[i][k]:
                yield from stub.LatCall(payload)
                return "LatCall"
            yield from stub.TputCall(payload)
            return "TputCall"

        loop = run_closed_loop(tb.sim, tb.nodes[1:], self.n_clients,
                               self.warmup, self.iters, connect, call,
                               counted=("TputCall",))
        return MixResult(lat_stats=loop.stats["LatCall"],
                         tput_ops_per_sec=loop.throughput,
                         tput_stats=loop.stats["TputCall"])
