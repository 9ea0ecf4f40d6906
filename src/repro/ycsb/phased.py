"""Time-phased YCSB: the one YCSB driver, over the bench harness.

:func:`run_ycsb_phased` runs the choreography of Section 5.4 -- server
nodes, clients spread across the client nodes, a bulk load straight into
the backend (load time is not measured by the paper) -- through a
:class:`~repro.bench.harness.PhasedRun`: clients loop on sim time
instead of op counts, every completed op is attributed to the phase it
*started* in, and :func:`measurement_result` reads the MEASUREMENT phase
as a :class:`YcsbResult`.  It is transport- and topology-agnostic: pass a
``connect`` coroutine factory and the same driver runs HatKV, every
emulated comparator and the sharded cluster.  An optional
:class:`~repro.bench.harness.StormSpec` turns into an
:class:`~repro.faults.plan.OverloadStorm` armed exactly when MEASUREMENT
opens (the fault injector interprets event times relative to arming, so
``storm.at`` is an offset into the measurement window by construction).

Primary clients are rejection-aware: a
:class:`~repro.thrift.errors.TRejectedException` (admission shed) is not
a failure -- the client honors the advised ``retry_after`` and moves on,
so an overloaded run degrades in throughput instead of crashing the
bench.  Storm clients are pure background load: they assert nothing,
swallow rejections, and stop issuing when the storm's handle goes
inactive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.bench.harness import Phase, PhasedRun, Scenario, StormSpec
from repro.bench.stats import LatencyStats
from repro.sim.core import AllOf
from repro.thrift.errors import TRejectedException
from repro.ycsb.workload import (InsertSequence, OpType, Workload,
                                 WorkloadSpec)

__all__ = ["YcsbResult", "measurement_result", "run_ycsb_phased",
           "scenario_spec"]


@dataclass
class YcsbResult:
    throughput_ops: float
    per_op: Dict[OpType, LatencyStats]
    total_ops: int

    def latency(self, op: OpType) -> LatencyStats:
        return self.per_op[op]


def _load_server(server, items) -> None:
    """Bulk-load (key, value) pairs, bypassing RPC.  Prefers the server's
    own ``load`` (which a sharded cluster routes per shard); falls back to
    writing straight into a single backend's LMDB env."""
    load = getattr(server, "load", None)
    if load is not None:
        load(items)
        return
    with server.backend.env.begin(write=True) as txn:
        for key, value in items:
            txn.put(key, value)


def _dispatch(stub, op: OpType, args, spec: WorkloadSpec, check: bool):
    """Issue one YCSB op on a KV stub (primary and storm clients alike)."""
    if op is OpType.GET:
        res = yield from stub.Get(*args)
        # 'latest' may pick an index whose insert is still in flight on
        # another client; a miss is then legitimate.
        if check:
            assert res.found or spec.distribution == "latest", \
                f"missing key {args[0]!r}"
    elif op is OpType.PUT or op is OpType.INSERT:
        yield from stub.Put(*args)
    elif op is OpType.MULTI_GET:
        values = yield from stub.MultiGet(*args)
        if check:
            assert len(values) == len(args[0])
    elif op is OpType.MULTI_PUT:
        yield from stub.MultiPut(*args)
    else:  # SCAN
        flat = yield from stub.Scan(*args)
        if check:
            assert len(flat) % 2 == 0


def scenario_spec(base: WorkloadSpec, scenario: Scenario) -> WorkloadSpec:
    """Apply a matrix cell's skew / value-size axes to a base workload."""
    return replace(base, theta=scenario.skew,
                   field_length=scenario.value_size)


def measurement_result(run: PhasedRun) -> YcsbResult:
    """The MEASUREMENT phase of a finished run as a ``YcsbResult``: its
    numbers exclude warmup by construction (attribution is by op *start*
    time)."""
    per_op = {op: run.stats[Phase.MEASUREMENT].get(op.value, LatencyStats())
              for op in OpType}
    return YcsbResult(throughput_ops=run.throughput(Phase.MEASUREMENT),
                      per_op=per_op,
                      total_ops=run.ops(Phase.MEASUREMENT))


def run_ycsb_phased(server: Any, connect: Callable, spec: WorkloadSpec,
                    testbed: Any, run: PhasedRun,
                    n_clients: int = 16, n_client_nodes: int = 4,
                    seed: int = 0,
                    storm: Optional[StormSpec] = None) -> PhasedRun:
    """Drive one phased YCSB run to completion; returns the (finished)
    ``run`` with per-phase stats populated.

    ``connect(node)`` is a coroutine returning a stub with Get/Put/
    MultiGet/MultiPut (and Scan, for YCSB-E) coroutines; ``server`` is
    anything with ``load(items)`` and ``node``/``nodes``.  The bulk load
    and every client's connection setup run before WARMUP opens, in no
    phase; clients then loop until the harness stops them at the end of
    COOLDOWN.
    """
    sim = testbed.sim
    server_nodes = getattr(server, "nodes", None) or [server.node]
    candidates = [n for n in testbed.nodes if n not in server_nodes]
    client_nodes = candidates[:n_client_nodes]
    if not client_nodes:
        raise ValueError("no client nodes left after excluding servers")
    # One run-wide insert sequence: every client's 'latest' distribution
    # keys off the same high-water mark, as YCSB-D intends.
    insert_seq = InsertSequence(spec.record_count)
    client_procs: List[Any] = []

    def client(i: int, stub) -> Any:
        wl = Workload(spec, seed=seed * 7919 + i, insert_seq=insert_seq)
        while not run.stopped:
            op, args = wl.next_op()
            t0 = sim.now
            try:
                yield from _dispatch(stub, op, args, spec, check=True)
            except TRejectedException as e:
                # Shed, not failed: honor the advised backoff and retry
                # with the next op (the server provably never ran this
                # one, so dropping it under-counts nothing but load).
                yield sim.timeout(max(e.retry_after, 1e-9))
                continue
            run.record(op.value, sim.now - t0, start=t0)

    def prepare() -> Any:
        loader = Workload(spec, seed=seed)
        _load_server(server, loader.load_items())
        for i in range(n_clients):
            node = client_nodes[i % len(client_nodes)]
            stub = yield from connect(node)
            client_procs.append(
                sim.process(client(i, stub), name=f"ycsb-{i}"))

    if storm is not None:
        _arm_storm(run, testbed, connect, spec, storm,
                   node=client_nodes[-1], seed=seed)

    driver = sim.process(run.drive(prepare=prepare()), name="phase-driver")
    sim.run(until=driver)
    if client_procs:
        sim.run(until=AllOf(sim, client_procs))
    for p in client_procs:
        p.value  # surface any client failure instead of undercounting
    run.stop()
    sim.run()
    return run


def _arm_storm(run: PhasedRun, testbed: Any, connect: Callable,
               spec: WorkloadSpec, storm: StormSpec, node: str,
               seed: int) -> None:
    """Wire a StormSpec to fire ``storm.at`` into the MEASUREMENT window."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan, OverloadStorm
    sim = testbed.sim
    inj = FaultInjector(testbed, FaultPlan(events=(
        OverloadStorm(node=node, start=storm.at,
                      duration=storm.duration, clients=storm.clients),)))

    def storm_client(j: int, ev, handle) -> Any:
        wl = Workload(spec, seed=seed * 104729 + j)
        stub = yield from connect(ev.node)
        while handle.active and not run.stopped:
            op, args = wl.next_op()
            try:
                yield from _dispatch(stub, op, args, spec, check=False)
            except TRejectedException as e:
                yield sim.timeout(max(e.retry_after, 1e-9))

    def on_storm(ev, handle) -> None:
        run.annotate("storm_start", node=ev.node, clients=ev.clients,
                     duration=ev.duration)
        for j in range(ev.clients):
            sim.process(storm_client(j, ev, handle), name=f"storm-{j}")

        def ender() -> Any:
            yield sim.timeout(ev.duration)
            run.annotate("storm_end", node=ev.node)

        sim.process(ender(), name="storm-end")

    inj.on_storm(on_storm)

    def on_phase(phase: Phase, t: float) -> None:
        if phase is Phase.MEASUREMENT:
            inj.arm()   # event times are relative to arming: storm.at
            run.annotate("storm_armed", at=storm.at,
                         duration=storm.duration, clients=storm.clients)

    run.on_phase.append(on_phase)
