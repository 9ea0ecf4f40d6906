"""HatKV integration tests."""

import pytest

from repro.hatkv import HatKVServer, connect_hatkv, load_hatkv_module
from repro.hatkv.server import SERVICE
from repro.lmdb import SyncMode
from repro.testbed import Testbed
from tests.hatkv.test_backend import write_burst


@pytest.fixture
def tb():
    return Testbed(n_nodes=3)


def start(tb, variant="function", concurrency=4, **kw):
    gen = load_hatkv_module(variant=variant, concurrency=concurrency)
    server = HatKVServer(tb.node(0), gen, concurrency=concurrency, **kw)
    return gen, server.start()


def test_put_get_roundtrip(tb):
    gen, server = start(tb)
    out = {}

    def client():
        kv = yield from connect_hatkv(tb.node(1), tb.node(0), gen,
                                      concurrency=4)
        yield from kv.Put(b"key-1".ljust(24, b"0"), b"value-1" * 100)
        out["v"] = yield from kv.Get(b"key-1".ljust(24, b"0"))
        out["missing"] = yield from kv.Get(b"nothere".ljust(24, b"0"))

    tb.sim.run(tb.sim.process(client()))
    assert out["v"].found and out["v"].value == b"value-1" * 100
    assert not out["missing"].found and out["missing"].value == b""
    assert server.backend.reads == 2
    assert server.backend.writes == 1


def test_get_distinguishes_empty_value_from_missing(tb):
    # Regression: Get used to return bare bytes, so a stored-empty value
    # and an absent key were both b"" -- indistinguishable to callers.
    gen, server = start(tb)
    out = {}

    def client():
        kv = yield from connect_hatkv(tb.node(1), tb.node(0), gen,
                                      concurrency=4)
        yield from kv.Put(b"empty".ljust(24, b"0"), b"")
        out["empty"] = yield from kv.Get(b"empty".ljust(24, b"0"))
        out["absent"] = yield from kv.Get(b"absent".ljust(24, b"0"))

    tb.sim.run(tb.sim.process(client()))
    assert out["empty"].found and out["empty"].value == b""
    assert not out["absent"].found and out["absent"].value == b""


def test_multi_ops(tb):
    gen, server = start(tb)
    keys = [f"k{i}".encode().ljust(24, b"0") for i in range(10)]
    values = [f"v{i}".encode() * 50 for i in range(10)]
    out = {}

    def client():
        kv = yield from connect_hatkv(tb.node(1), tb.node(0), gen,
                                      concurrency=4)
        yield from kv.MultiPut(keys, values)
        out["vals"] = yield from kv.MultiGet(keys)
        out["mixed"] = yield from kv.MultiGet([keys[0], b"absent" * 4])

    tb.sim.run(tb.sim.process(client()))
    assert out["vals"] == values
    assert out["mixed"] == [values[0], b""]


def test_function_variant_splits_channels():
    gen = load_hatkv_module(variant="function", concurrency=128)
    from repro.core.runtime import service_plan_of
    plan = service_plan_of(gen, SERVICE, concurrency=128)
    # MultiGet (10KB payloads) and Get (1KB) get differently sized
    # channels at 128-way concurrency (buffer geometry + RFP slot sizing
    # are per-channel even when the wire protocol coincides).
    assert plan.channel_for("Get").protocol == "direct_writeimm"
    assert plan.channel_for("MultiGet").max_msg > plan.channel_for("Get").max_msg
    assert len(plan.channels) >= 2


def test_service_variant_single_channel():
    gen = load_hatkv_module(variant="service", concurrency=128)
    from repro.core.runtime import service_plan_of
    plan = service_plan_of(gen, SERVICE, concurrency=128)
    assert len(plan.channels) == 1


def test_backend_hint_tuning(tb):
    gen, server = start(tb, concurrency=64)
    # throughput goal -> group commit + NOSYNC; readers from concurrency.
    assert server.backend.env.max_readers == 64
    assert server.backend.env.sync_mode is SyncMode.NOSYNC
    writes, commits = write_burst(tb.sim, server.backend)
    assert commits < writes == 4


def test_untuned_backend_for_comparators(tb):
    gen, server = start(tb, tune_backend=False)
    assert server.backend.env.max_readers == 126   # stock LMDB default
    assert write_burst(tb.sim, server.backend) == (4, 4)  # a commit each


def test_concurrent_clients_consistency(tb):
    gen, server = start(tb, concurrency=8)
    results = []

    def client(i):
        kv = yield from connect_hatkv(tb.node(1 + i % 2), tb.node(0), gen,
                                      concurrency=8)
        key = f"client{i}".encode().ljust(24, b"0")
        yield from kv.Put(key, f"data-{i}".encode() * 100)
        got = yield from kv.Get(key)
        results.append(got.found and got.value == f"data-{i}".encode() * 100)

    for i in range(8):
        tb.sim.process(client(i))
    tb.sim.run()
    assert len(results) == 8 and all(results)
    # All writes landed in one LMDB (single-writer serialization worked).
    assert server.backend.env.stat().entries == 8
