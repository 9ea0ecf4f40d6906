"""YCSB run loop against any KVService stub factory.

The runner owns the simulation choreography of Section 5.4: server nodes,
clients spread across four client nodes, a load phase (direct into the
backend -- load time is not measured by the paper), then a measured run
phase.  It is transport- and topology-agnostic: pass a ``connect``
coroutine factory so the same runner drives HatKV, every emulated
comparator, and the sharded cluster (any ``server`` exposing
``load(items)`` and either ``node`` or ``nodes`` works).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.bench.loop import run_closed_loop
from repro.bench.stats import LatencyStats
from repro.hatkv.server import HatKVServer
from repro.testbed import Testbed
from repro.ycsb.workload import InsertSequence, OpType, Workload, WorkloadSpec

__all__ = ["YcsbResult", "run_ycsb"]


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
    """Issue one YCSB op on a KV stub (shared by every driver's clients)."""
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


def run_ycsb(server: HatKVServer, connect: Callable, spec: WorkloadSpec,
             testbed: Testbed, n_clients: int = 16, ops_per_client: int = 20,
             warmup_per_client: int = 3, n_client_nodes: int = 4,
             seed: int = 0) -> YcsbResult:
    """Run one YCSB experiment; ``connect(node)`` is a coroutine returning
    a stub with Get/Put/MultiGet/MultiPut coroutines."""
    # Load phase: populate the backend(s) directly (not timed, as in YCSB).
    loader = Workload(spec, seed=seed)
    _load_server(server, loader.load_items())

    server_nodes = getattr(server, "nodes", None) or [server.node]
    candidates = [n for n in testbed.nodes if n not in server_nodes]
    # One run-wide insert sequence: every client's 'latest' distribution
    # keys off the same high-water mark, as YCSB-D intends.
    insert_seq = InsertSequence(spec.record_count)

    def connect_client(node, i):
        wl = Workload(spec, seed=seed * 7919 + i, insert_seq=insert_seq)
        stub = yield from connect(node)
        return wl, stub

    def call(conn, _i, _k):
        wl, stub = conn
        op, args = wl.next_op()
        yield from _dispatch(stub, op, args, spec, check=True)
        return op

    loop = run_closed_loop(testbed.sim, candidates[:n_client_nodes],
                           n_clients, warmup_per_client, ops_per_client,
                           connect_client, call)
    return YcsbResult(throughput_ops=loop.throughput,
                      per_op={op: loop.stats[op] for op in OpType},
                      total_ops=loop.ops)
