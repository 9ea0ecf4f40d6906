"""Shared ATB machinery: server/client setup for every transport mode.

``mode`` selects the system under test:

* ``"hatrpc"`` -- the full hint-driven HatRPC runtime;
* ``"ipoib"`` -- vanilla Thrift over the kernel TCP/IPoIB stack;
* any protocol registry name (e.g. ``"hybrid_eager_rndv"``) -- the same
  generated Thrift code pinned to that one RDMA protocol (the paper's
  per-protocol baselines of Figs. 11-14).

Pinned baselines poll subscription-aware (busy <= 16 clients, event above),
so HatRPC's wins in the figures come from protocol choice, not from
handicapping the baselines with a bad polling mode.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import ServicePlan, pinned_plan, plan_with_window
from repro.core.runtime import HatRpcServer, hatrpc_connect, service_plan_of
from repro.testbed import Testbed
from repro.verbs.cq import PollMode

__all__ = ["baseline_poll_mode", "connect_stub", "plan_for_mode",
           "start_server"]

SERVICE = "ATBench"
BASE_SID = 7000


def baseline_poll_mode(mode: str, n_clients: int) -> PollMode:
    # Hybrid-EagerRNDV stands in for "vanilla Thrift over RDMA without
    # hints": lacking any knowledge of the deployment, it must default to
    # the polling mode that does not monopolize a core -- event polling.
    # The per-protocol baselines (the paper's hand-tuned comparators) get
    # the subscription-aware polling an expert would configure.
    if mode == "hybrid_eager_rndv":
        return PollMode.EVENT
    return PollMode.BUSY if n_clients <= 16 else PollMode.EVENT


def plan_for_mode(gen, mode: str, n_clients: int, max_msg: int,
                  window: int = 1) -> Optional[ServicePlan]:
    """None for hatrpc (hint-driven); a pinned plan for baselines.

    ``window > 1`` provisions the plan for pipelined calls -- and forces an
    explicit plan even for hatrpc mode, since both peers must share the
    widened wire-slot geometry.
    """
    if mode == "hatrpc":
        if window <= 1:
            return None
        return plan_with_window(
            service_plan_of(gen, SERVICE, concurrency=n_clients,
                            pipeline=True), window)
    protocol = "tcp" if mode == "ipoib" else mode
    plan = pinned_plan(SERVICE, gen.SERVICE_FUNCTIONS[SERVICE], protocol,
                       baseline_poll_mode(mode, n_clients), max_msg,
                       numa_local=n_clients <= 16)
    return plan_with_window(plan, window) if window > 1 else plan


def start_server(tb: Testbed, gen, handler, mode: str, n_clients: int,
                 max_msg: int, server_node: int = 0,
                 window: int = 1) -> HatRpcServer:
    plan = plan_for_mode(gen, mode, n_clients, max_msg, window)
    server = HatRpcServer(tb.node(server_node), gen, SERVICE, handler,
                          base_service_id=BASE_SID,
                          concurrency=n_clients, plan=plan)
    return server.start()


def connect_stub(tb: Testbed, client_node, gen, mode: str, n_clients: int,
                 max_msg: int, server_node: int = 0, window: int = 1):
    """Coroutine: a connected ATBench stub on ``client_node``."""
    plan = plan_for_mode(gen, mode, n_clients, max_msg, window)
    stub = yield from hatrpc_connect(
        client_node, tb.node(server_node), gen, SERVICE,
        base_service_id=BASE_SID, concurrency=n_clients, plan=plan)
    return stub


class EchoHandler:
    """Echoes a fixed-size response; optional checksum work per request.

    The mix benchmark's server work models the paper's checksum whose cost
    grows with the payload (Section 5.3): ``payload_bytes / checksum_rate``
    seconds of CPU.
    """

    def __init__(self, node, resp_payload: int, checksum_rate: float = 0.0):
        self.node = node
        self.resp = bytes(i % 251 for i in range(resp_payload))
        self.checksum_rate = checksum_rate

    def _work(self, payload):
        if self.checksum_rate > 0:
            yield self.node.compute(len(payload) / self.checksum_rate)
        return self.resp

    def Echo(self, payload):
        return (yield from self._work(payload))

    def LatCall(self, payload):
        return (yield from self._work(payload))

    def TputCall(self, payload):
        return (yield from self._work(payload))
