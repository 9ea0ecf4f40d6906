#!/usr/bin/env python
"""Quickstart: define a hinted service, generate code, call it over RDMA.

This walks the whole HatRPC pipeline on a two-node simulated cluster:

1. write a Thrift IDL with HatRPC hints (Figure 7 syntax);
2. compile it with the IDL compiler (lexer -> parser -> hint validation ->
   Python codegen);
3. start a HatRPC server and connect a client -- the hint-aware engine
   derives the channel plan (protocol + polling per function) from the
   generated hint map;
4. make calls and inspect what the hints decided.

Run:  python examples/quickstart.py
      python examples/quickstart.py --trace trace.json --metrics

``--trace PATH`` installs the distributed-trace collector: every call gets
a trace whose server-side handler/backend spans are children of the client
call span (the context crosses the wire in the RPC framing).  The file is
Chrome ``trace_event`` JSON -- open it at https://ui.perfetto.dev, where
each simulated node is its own process track -- and one trace tree plus
the hint-attribution table are printed to stdout.  ``--sample-rate`` keeps
only that fraction of traces (faulted calls are always kept).
``--metrics`` installs a metrics registry and prints the snapshot;
``--metrics-out FILE`` additionally writes it in Prometheus text format
(render both later with ``scripts/obs_dump.py``).
``--tuner`` turns on closed-loop hint tuning: the plan provisions
alternate channels on both peers, a :class:`~repro.core.tuner.HintTuner`
watches live call stats, and the demo pushes a payload far beyond Post's
declared hint so you can watch the tuner retarget the route online.
"""

import argparse

from repro import obs
from repro.obs import trace as obstrace
from repro.core.runtime import HatRpcServer, hatrpc_connect, service_plan_of
from repro.idl import load_idl
from repro.sim.units import us
from repro.testbed import Testbed

IDL = """
// An echo service with heterogeneous functions (compare Figure 1).
service Echo {
    // Service-level hints set the tone for every function...
    hint: perf_goal = throughput, concurrency = 4;

    string Ping(1: string msg) [
        // ...and function-level hints override for the functions that
        // need something different: Ping is latency-critical.
        hint: perf_goal = latency, payload_size = 64;
    ]
    binary Post(1: binary payload) [
        hint: payload_size = 64KB;
    ]
    oneway void Deliver(1: i64 token),
}
"""


class EchoHandler:
    """The application code: plain methods (or coroutines for
    handlers that consume simulated time)."""

    def __init__(self):
        self.delivered = []

    def Ping(self, msg):
        return f"pong: {msg}"

    def Post(self, payload):
        return payload[::-1]

    def Deliver(self, token):
        self.delivered.append(token)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", metavar="PATH", default=None,
                    help="write a Perfetto-loadable trace_event JSON file")
    ap.add_argument("--sample-rate", type=float, default=1.0,
                    help="head-sampling rate for --trace (default: 1.0; "
                         "faulted calls are always kept)")
    ap.add_argument("--metrics", action="store_true",
                    help="install a metrics registry and print its snapshot")
    ap.add_argument("--metrics-out", metavar="FILE", default=None,
                    help="also write the snapshot as Prometheus text "
                         "(implies --metrics)")
    ap.add_argument("--tuner", action="store_true",
                    help="enable closed-loop hint tuning and demo an "
                         "online retarget")
    args = ap.parse_args(argv)

    # Observability must be installed BEFORE the testbed/engine are built:
    # components capture their registry/collector once, at construction.
    registry = (obs.install() if args.metrics or args.metrics_out
                else None)
    collector = (obstrace.install(sample_rate=args.sample_rate)
                 if args.trace else None)

    # -- 1+2: compile the IDL into an importable module --------------------
    gen = load_idl(IDL, "echo_gen")
    print("generated symbols:",
          [s for s in dir(gen) if s.startswith("Echo")])

    # -- inspect the hint-derived channel plan ------------------------------
    plan = service_plan_of(gen, "Echo")
    for fn, route in sorted(plan.routes.items()):
        ch = plan.channels[route.channel]
        print(f"  {fn:8s} -> channel {ch.index}: {ch.protocol} "
              f"({ch.server_poll.value} polling)  [{route.choice.rationale}]")

    # -- 3: a simulated two-node cluster ------------------------------------
    tb = Testbed(n_nodes=2)
    handler = EchoHandler()
    HatRpcServer(tb.node(0), gen, "Echo", handler,
                 tunable=args.tuner).start()
    tuner = None
    if args.tuner:
        from repro.core.tuner import HintTuner, TunerConfig
        tuner = HintTuner(TunerConfig(epoch_samples=8, min_samples=4,
                                      confirm_epochs=2, min_dwell=0.0))

    # -- 4: client calls (coroutines under the simulator) -------------------
    out = {}

    def client():
        echo = yield from hatrpc_connect(tb.node(1), tb.node(0), gen, "Echo",
                                         tuner=tuner)
        out["engine"] = echo._hatrpc.engine
        out["ping"] = yield from echo.Ping("hello HatRPC")
        t0 = tb.sim.now
        yield from echo.Ping("timed")
        out["ping_latency"] = tb.sim.now - t0
        blob = bytes(range(256)) * 64
        out["post"] = (yield from echo.Post(blob)) == blob[::-1]
        yield from echo.Deliver(42)
        if tuner is not None:
            # A payload far beyond Post's declared 64KB hint: the first
            # attempt fails oversize, the tuner urgently retargets onto an
            # alternate channel that fits, and the re-issued call works.
            big = bytes(range(256)) * 480            # 120 KiB
            try:
                yield from echo.Post(big)
            except Exception as exc:
                out["tuner_error"] = type(exc).__name__
            out["tuned_post"] = (yield from echo.Post(big)) == big[::-1]

    tb.sim.run(tb.sim.process(client()))
    tb.sim.run()

    print(f"\nPing reply:        {out['ping']!r}")
    print(f"Ping latency:      {out['ping_latency'] / us:.2f} us "
          "(simulated, over RDMA Direct-WriteIMM)")
    print(f"Post roundtrip ok: {out['post']}")
    print(f"Oneway delivered:  {handler.delivered}")
    if tuner is not None:
        print("\ntuner (closed-loop hints):")
        for line in tuner.summary_lines():
            print("  " + line)
        print(f"  oversize Post after retarget ok: {out['tuned_post']}")

    if collector is not None:
        obs.export_chrome_trace(args.trace, collector=collector,
                                engine=out["engine"])
        print(f"\nwrote {args.trace} ({len(collector.spans)} spans) -- "
              "open it at https://ui.perfetto.dev")
        traces = collector.traces()
        if traces:
            # Show one end-to-end tree: client call -> attempt -> stages,
            # with the server's handler/backend spans nested under the
            # attempt that carried their context over the wire.
            first = next(iter(traces.values()))
            print("\nfirst trace:")
            print(obstrace.format_trace(first))
            print("\nhint attribution (all traces):")
            print(obs.attribution_table(collector.spans))
        obstrace.uninstall()
    if registry is not None:
        print("\nmetrics snapshot:")
        print(obs.pretty(registry.snapshot()))
        if args.metrics_out:
            with open(args.metrics_out, "w") as f:
                f.write(obs.promtext_render(registry))
            print(f"wrote {args.metrics_out} (Prometheus text format)")
        obs.uninstall()


if __name__ == "__main__":
    main()
