#!/usr/bin/env python
"""Heterogeneous service with priority hints + per-call tracing.

Section 4.1 motivates function-level hints with exactly this shape of
service: "it is common for a high priority service to have unimportant
functions, e.g., some functions that are called periodically like
heartbeats between server and client.  These functions ... can be
optimized with low priority and give way to other significant RPC
functions."

This example runs a monitoring/control service where:

* ``Query`` is the hot path (latency hints -> Direct-WriteIMM, busy poll);
* ``Heartbeat`` is periodic noise (``priority = low`` -> the resource-
  efficient path: event polling, no pinned core);
* ``BulkExport`` ships big snapshots (throughput + payload hints).

The :mod:`repro.obs.trace` collector shows what the engine actually did:
one client root span per call, grouped by resolved hint tuple into a
per-stage latency table.

Run:  python examples/monitoring_service.py
"""

from repro import obs
from repro.obs import trace as obstrace
from repro.core.runtime import HatRpcServer, hatrpc_connect, service_plan_of
from repro.idl import load_idl
from repro.sim.units import ms, us
from repro.testbed import Testbed

IDL = """
service Monitor {
    hint: concurrency = 8, perf_goal = latency;

    string Query(1: string metric),
    i64 Heartbeat(1: i64 seq) [
        hint: priority = low;
    ]
    binary BulkExport(1: i32 shard) [
        hint: perf_goal = throughput, payload_size = 64KB;
    ]
}
"""


class MonitorHandler:
    def __init__(self, node):
        self.node = node
        self.beats = 0
        self.snapshot = bytes(range(256)) * 256  # 64 KB

    def Query(self, metric):
        return f"{metric}=42.0"

    def Heartbeat(self, seq):
        self.beats += 1
        return seq

    def BulkExport(self, shard):
        yield self.node.compute(5 * us)
        return self.snapshot


def main():
    gen = load_idl(IDL, "monitor_gen")
    plan = service_plan_of(gen, "Monitor")
    print("channel plan (note Heartbeat demoted off the busy-poll path):")
    for fn, route in sorted(plan.routes.items()):
        ch = plan.channels[route.channel]
        print(f"  {fn:10s} -> {ch.protocol:16s} "
              f"server={ch.server_poll.value:5s}  [{route.choice.rationale}]")

    # The collector must exist before the testbed: engines capture it once,
    # at construction.
    collector = obstrace.install()
    tb = Testbed(n_nodes=2)
    handler = MonitorHandler(tb.node(0))
    HatRpcServer(tb.node(0), gen, "Monitor", handler).start()

    def heartbeater(stub):
        for seq in range(20):
            yield from stub.Heartbeat(seq)
            yield tb.sim.timeout(1 * ms)

    def operator():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen,
                                         "Monitor")
        # a second logical client on its own connection for the heartbeats
        hb_stub = yield from hatrpc_connect(tb.node(1), tb.node(0), gen,
                                            "Monitor")
        tb.sim.process(heartbeater(hb_stub))
        for i in range(50):
            yield from stub.Query(f"cpu.{i % 4}")
            if i % 10 == 9:
                yield from stub.BulkExport(i // 10)
            yield tb.sim.timeout(200 * us)

    tb.sim.run(tb.sim.process(operator()))
    tb.sim.run()

    print(f"\nheartbeats served: {handler.beats}")
    print("\nper-hint-tuple stages (every connection):")
    print(obs.attribution_table(collector.spans))
    obstrace.uninstall()


if __name__ == "__main__":
    main()
