"""Fig. 17's distributed TPC-H: a recorded per-query trace replayed over the
RPC layer under test.

Topology (Section 5.5): node 0 is the coordinator, nodes 1..W are workers
holding orderkey-striped partitions of orders+lineitem plus replicated
dimensions.  A query runs as:

1. the coordinator calls ``RunFragment(q)`` on every worker in parallel;
2. each worker charges fragment compute (rows touched x per-row cost) and
   returns the first chunk of its partial, streaming the rest through
   ``PullChunk`` calls (the framed chunking a Thrift-based engine uses for
   large intermediates);
3. the coordinator reassembles every partial, checks it byte for byte, and
   charges the final-stage compute.

The paper studies the RPC traffic of a database running TPC-H, not its
query engine, so a query is the three numbers the cluster sees: the rows
each worker touches, the length of each worker's serialized partial, and
the rows of the coordinator's final stage.  ``fig17_trace.json`` holds them
per ``(sf, seed, n_workers)``; the columnar engine in ``tests/tpch/engine``
recorded them (``python -m tests.tpch.engine.trace``).  A partial's bytes
are a deterministic pattern of the recorded length.

Only the RPC transport differs between the three modes the paper compares:
``ipoib`` (vanilla Thrift over kernel TCP), ``hatrpc_service``
(service-level hints), ``hatrpc_function`` (per-function hints: bulk
fragment pulls vs. latency-sensitive control RPCs + NUMA binding).
"""

from __future__ import annotations

import functools
import json
import random
import struct
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.engine import pinned_plan
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.idl import load_idl
from repro.sim.units import KiB, ns
from repro.verbs.cq import PollMode
from repro.testbed import Testbed

__all__ = ["DistributedTpch", "QUERIES", "QueryTrace", "TpchResult",
           "load_trace"]

SERVICE = "TpchWorker"
BASE_SID = 8000
CHUNK = 64 * KiB
QUERIES = tuple(range(1, 23))

_MODES = ("ipoib", "hatrpc_service", "hatrpc_function")


class QueryTrace(NamedTuple):
    """One query's recorded work, per worker and on the coordinator."""
    rows: Tuple[int, ...]           # rows each worker's fragment touches
    partial_len: Tuple[int, ...]    # bytes of each worker's partial
    final_rows: int                 # merged partial rows + final-stage rows

    @property
    def exchange_bytes(self) -> int:
        """Reply bytes the query moves: per worker a u32 length + partial."""
        return sum(4 + n for n in self.partial_len)


@functools.cache
def load_trace() -> Dict[Tuple[float, int, int], Dict[int, QueryTrace]]:
    """``fig17_trace.json`` as ``{(sf, seed, n_workers): {query: trace}}``."""
    text = resources.files("repro.tpch").joinpath(
        "fig17_trace.json").read_text()
    return {(k["sf"], k["seed"], k["n_workers"]): {
                int(q): QueryTrace(tuple(v["rows"]), tuple(v["partial_len"]),
                                   v["final_rows"])
                for q, v in k["queries"].items()}
            for k in json.loads(text)["keys"]}


def _partial_bytes(query: int, worker: int, n: int) -> bytes:
    """The ``n`` bytes that stand for ``worker``'s partial of ``query``."""
    return random.Random(f"tpch/{query}/{worker}").randbytes(n)


def _worker_idl(mode: str, n_workers: int) -> str:
    if mode == "hatrpc_function":
        frag_hints = ("[ hint: perf_goal = throughput, payload_size = 64KB, "
                      "numa_binding = true; ]")
        pull_hints = frag_hints
        ctl_hints = "[ hint: perf_goal = latency, payload_size = 64; ]"
        ping_hints = "[ hint: transport = tcp; ]"
    else:
        frag_hints = pull_hints = ctl_hints = ping_hints = ""
    return f"""
service TpchWorker {{
    hint: perf_goal = throughput, concurrency = {n_workers};

    binary RunFragment(1: i32 query) {frag_hints}
    binary PullChunk(1: i32 query, 2: i32 offset) {pull_hints}
    i32 Prepare(1: i32 query) {ctl_hints}
    i32 Ping() {ping_hints}
}}
"""


class _WorkerHandler:
    """One worker's service implementation over its recorded fragments."""

    def __init__(self, node, worker: int, trace: Dict[int, QueryTrace],
                 per_row_cost: float):
        self.node = node
        self.worker = worker
        self.trace = trace
        self.per_row_cost = per_row_cost
        self._staged: Dict[int, bytes] = {}

    def Prepare(self, query):
        # Plan/metadata setup: a small fixed cost.
        yield self.node.compute(2e-6)
        return query

    def Ping(self):
        return 1

    def RunFragment(self, query):
        q = self.trace[int(query)]
        yield self.node.compute(q.rows[self.worker] * self.per_row_cost)
        data = _partial_bytes(int(query), self.worker,
                              q.partial_len[self.worker])
        self._staged[int(query)] = data
        # First chunk rides the reply: u32 total length + payload.
        return struct.pack("<I", len(data)) + data[:CHUNK]

    def PullChunk(self, query, offset):
        data = self._staged.get(int(query), b"")
        chunk = data[int(offset):int(offset) + CHUNK]
        yield self.node.compute(len(chunk) * 0.02 * ns)  # stream-out cost
        return chunk


@dataclass
class TpchResult:
    query: int
    elapsed: float              # simulated seconds
    exchange_bytes: int


class DistributedTpch:
    """One experiment instance: a cluster, a recorded trace, and an RPC mode."""

    def __init__(self, mode: str = "hatrpc_function", sf: float = 0.005,
                 n_workers: int = 9, per_row_cost: float = 50 * ns,
                 seed: int = 1, testbed: Optional[Testbed] = None):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        key = (sf, seed, n_workers)
        recorded = load_trace()
        if key not in recorded:
            raise ValueError(
                f"no recorded trace for (sf, seed, n_workers) = {key}; "
                f"recorded keys: {sorted(recorded)}")
        self.mode = mode
        self.sf = sf
        self.n_workers = n_workers
        self.per_row_cost = per_row_cost
        self.trace = recorded[key]
        self.tb = testbed or Testbed(n_nodes=n_workers + 1)
        if len(self.tb.nodes) < n_workers + 1:
            raise ValueError("testbed too small for the worker count")
        self.gen = load_idl(_worker_idl(mode, n_workers), f"tpch_gen_{mode}")
        self._stubs: List = []
        self._started = False

    def _plan(self):
        if self.mode == "ipoib":
            return pinned_plan(SERVICE, self.gen.SERVICE_FUNCTIONS[SERVICE],
                               "tcp", PollMode.EVENT, 128 * KiB)
        return None  # hint-driven

    # -- cluster bring-up -----------------------------------------------------------
    def start(self) -> "DistributedTpch":
        """Coroutine-free setup + simulated connection establishment."""
        sim = self.tb.sim
        for w in range(self.n_workers):
            node = self.tb.node(w + 1)
            handler = _WorkerHandler(node, w, self.trace, self.per_row_cost)
            HatRpcServer(node, self.gen, SERVICE, handler,
                         base_service_id=BASE_SID,
                         concurrency=self.n_workers,
                         plan=self._plan()).start()

        def connect_all():
            for w in range(self.n_workers):
                stub = yield from hatrpc_connect(
                    self.tb.node(0), self.tb.node(w + 1), self.gen, SERVICE,
                    base_service_id=BASE_SID, concurrency=self.n_workers,
                    plan=self._plan())
                # Warm the lazily established channels so per-query timings
                # measure steady state, not connection setup.
                yield from stub.Prepare(0)
                yield from stub.PullChunk(0, 0)
                self._stubs.append(stub)

        sim.run(sim.process(connect_all()))
        self._started = True
        return self

    # -- execution ----------------------------------------------------------------------
    def run_query(self, query: int) -> TpchResult:
        if not self._started:
            raise RuntimeError("call start() first")
        if query not in self.trace:
            raise KeyError(f"TPC-H defines queries 1..22, not {query}")
        sim = self.tb.sim
        trace = self.trace[query]
        volume = {"bytes": 0}

        def fetch(w):
            stub = self._stubs[w]
            yield from stub.Prepare(query)
            first = yield from stub.RunFragment(query)
            (total,) = struct.unpack_from("<I", first)
            data = first[4:]
            volume["bytes"] += len(first)
            while len(data) < total:
                chunk = yield from stub.PullChunk(query, len(data))
                data += chunk
                volume["bytes"] += len(chunk)
            if data != _partial_bytes(query, w, trace.partial_len[w]):
                raise RuntimeError(
                    f"Q{query}: worker {w}'s partial arrived corrupted")

        t0 = sim.now
        procs = [sim.process(fetch(w)) for w in range(self.n_workers)]
        sim.run()
        for p in procs:
            p.value  # surface worker/coordinator failures

        def final_stage():
            yield self.tb.node(0).compute(
                trace.final_rows * self.per_row_cost + 5e-6)

        sim.process(final_stage())
        sim.run()
        return TpchResult(query=query, elapsed=sim.now - t0,
                          exchange_bytes=volume["bytes"])

    def run_all(self) -> Dict[int, TpchResult]:
        return {q: self.run_query(q) for q in QUERIES}
