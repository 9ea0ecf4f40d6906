"""Fixtures: spin up an echo server + client for any protocol by name."""

import pytest

from repro.protocols import SRQ_SERVERS, ProtoConfig, get_protocol
from repro.testbed import Testbed

SERVICE = 100


def echo_handler(request: bytes) -> bytes:
    return request


def reverse_handler(request: bytes) -> bytes:
    return request[::-1]


def make_pair(tb: Testbed, proto: str, cfg: ProtoConfig = None,
              handler=echo_handler, server_node=1, client_node=0,
              service=SERVICE, srq=False):
    """Start a server (``srq``: the protocol's SRQ-backed one) and return a
    connect-coroutine for a client."""
    cfg = cfg or ProtoConfig()
    client_cls, server_cls = get_protocol(proto)
    if srq:
        server_cls = SRQ_SERVERS[proto]
    server = server_cls(tb.node(server_node).nic, service, handler, cfg).start()

    def connect():
        client = client_cls(tb.node(client_node).nic, cfg)
        yield from client.connect(tb.node(server_node), service)
        return client

    return server, connect


@pytest.fixture
def tb():
    return Testbed(n_nodes=3)
