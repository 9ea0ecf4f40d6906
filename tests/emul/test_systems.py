"""Comparator-system registry and setup tests."""

import pytest

from repro.emul import SYSTEMS, start_system
from repro.testbed import Testbed
from tests.hatkv.test_backend import write_burst


def test_registry_has_all_six_candidates():
    assert set(SYSTEMS) == {"hatkv_service", "hatkv_function", "ar_grpc",
                            "herd", "pilaf", "rfp"}
    assert SYSTEMS["ar_grpc"].protocol == "hybrid_eager_readrndv"
    assert SYSTEMS["herd"].protocol == "herd"
    assert SYSTEMS["hatkv_function"].protocol is None  # hint-driven


def test_only_hatkv_gets_tuned_backend():
    assert SYSTEMS["hatkv_service"].tuned_backend
    assert SYSTEMS["hatkv_function"].tuned_backend
    for name in ("ar_grpc", "herd", "pilaf", "rfp"):
        assert not SYSTEMS[name].tuned_backend, name


def test_unknown_system_rejected():
    tb = Testbed(n_nodes=3)
    with pytest.raises(KeyError, match="carrier"):
        start_system(tb, "carrier_pigeon", n_clients=2)


def test_comparator_backend_untouched():
    tb = Testbed(n_nodes=3)
    server, _ = start_system(tb, "pilaf", n_clients=64)
    # stock LMDB defaults, not hint-tuned
    assert server.backend.env.max_readers == 126
    assert write_burst(tb.sim, server.backend) == (4, 4)  # a commit each


def test_hatkv_backend_tuned():
    tb = Testbed(n_nodes=3)
    server, _ = start_system(tb, "hatkv_function", n_clients=64)
    assert server.backend.env.max_readers == 64


@pytest.mark.parametrize("system", ["ar_grpc", "herd"])
def test_comparator_roundtrip(system):
    tb = Testbed(n_nodes=3)
    server, connect = start_system(tb, system, n_clients=2)
    out = {}

    def client():
        kv = yield from connect(tb.node(1))
        key = b"key".ljust(24, b"0")
        yield from kv.Put(key, b"value" * 200)
        out["v"] = yield from kv.Get(key)

    tb.sim.run(tb.sim.process(client()))
    assert out["v"].found and out["v"].value == b"value" * 200
