"""The six YCSB candidates: HatKV (x2 variants) + four emulated systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.engine import pinned_plan
from repro.hatkv.client import connect_hatkv
from repro.hatkv.idl import load_hatkv_module
from repro.hatkv.server import SERVICE, HatKVServer
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.verbs.cq import PollMode

__all__ = ["SYSTEMS", "YcsbSystem", "start_system"]

#: generous bound: MultiPUT ships ~10 KB of values + keys + Thrift framing.
_KV_MAX_MSG = 24 * KiB


@dataclass(frozen=True)
class YcsbSystem:
    """One candidate of Figures 15-16."""

    name: str
    #: None -> hint-driven HatRPC; else the pinned comparator protocol.
    protocol: Optional[str]
    #: 'service' or 'function' IDL variant (HatKV only).
    variant: str = "service"
    tuned_backend: bool = False


SYSTEMS = {
    "hatkv_service": YcsbSystem("HatRPC-Service", None, variant="service",
                                tuned_backend=True),
    "hatkv_function": YcsbSystem("HatRPC-Function", None, variant="function",
                                 tuned_backend=True),
    "ar_grpc": YcsbSystem("AR-gRPC", "hybrid_eager_readrndv"),
    "herd": YcsbSystem("HERD", "herd"),
    "pilaf": YcsbSystem("Pilaf", "pilaf"),
    "rfp": YcsbSystem("RFP", "rfp"),
}


def _comparator_poll(n_clients: int) -> PollMode:
    # Comparators poll the way their papers deploy them: dedicated cores
    # while they fit, events beyond (matching the ATB baseline policy).
    return PollMode.BUSY if n_clients <= 16 else PollMode.EVENT


def start_system(tb: Testbed, system: str, n_clients: int,
                 server_node: int = 0
                 ) -> Tuple[HatKVServer, Callable]:
    """Start one candidate's server; returns (server, connect coroutine).

    ``connect(node)`` yields a KVService stub for one client connection.
    """
    try:
        spec = SYSTEMS[system]
    except KeyError:
        raise KeyError(f"unknown system {system!r}; "
                       f"known: {sorted(SYSTEMS)}") from None
    gen = load_hatkv_module(variant=spec.variant, concurrency=n_clients)
    if spec.protocol is None:
        plan = None
    else:
        plan = pinned_plan(SERVICE, gen.SERVICE_FUNCTIONS[SERVICE],
                           spec.protocol, _comparator_poll(n_clients),
                           _KV_MAX_MSG, numa_local=n_clients <= 16)
    server = HatKVServer(tb.node(server_node), gen,
                         concurrency=n_clients, plan=plan,
                         tune_backend=spec.tuned_backend).start()

    def connect(node):
        stub = yield from connect_hatkv(node, tb.node(server_node), gen,
                                        concurrency=n_clients, plan=plan)
        return stub

    return server, connect
