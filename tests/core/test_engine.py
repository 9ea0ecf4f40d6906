"""Channel-plan and engine unit tests."""

import pytest

from repro.core.engine import (
    ChannelPlan,
    HatRpcEngine,
    build_service_plan,
    pinned_plan,
)
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.verbs.cq import PollMode


def plan_of(hint_map, fns, conc=None):
    return build_service_plan("Svc", hint_map, fns,
                              concurrency_override=conc)


def test_identical_choices_share_one_channel():
    plan = plan_of({"service": {"shared": {"perf_goal": "latency"}},
                    "functions": {}}, ["A", "B", "C"])
    assert len(plan.channels) == 1
    assert set(plan.channels[0].functions) == {"A", "B", "C"}


def test_different_goals_isolated():
    plan = plan_of({
        "service": {"shared": {"concurrency": 64}},
        "functions": {
            "Fast": {"shared": {"perf_goal": "latency"}},
            "Bulk": {"shared": {"perf_goal": "res_util",
                                "payload_size": 64 * KiB}},
        }}, ["Fast", "Bulk", "Plain"])
    assert plan.routes["Fast"].channel != plan.routes["Bulk"].channel
    fast = plan.channel_for("Fast")
    bulk = plan.channel_for("Bulk")
    assert fast.server_poll is PollMode.BUSY
    assert bulk.protocol == "write_rndv"
    assert bulk.server_poll is PollMode.EVENT


def test_size_classes_do_not_share_buffers():
    plan = plan_of({
        "service": {"shared": {"perf_goal": "throughput"}},
        "functions": {
            "Small": {"shared": {"payload_size": 256}},
            "Big": {"shared": {"payload_size": 32 * KiB}},
        }}, ["Small", "Big"])
    assert plan.routes["Small"].channel != plan.routes["Big"].channel
    assert plan.channel_for("Big").max_msg > plan.channel_for("Small").max_msg


def test_unhinted_payload_gets_conservative_floor():
    plan = plan_of({"service": {}, "functions": {}}, ["F"])
    assert plan.channels[0].max_msg >= 128 * KiB
    hinted = plan_of({"service": {"shared": {"payload_size": 1024}},
                      "functions": {}}, ["F"])
    assert hinted.channels[0].max_msg < 32 * KiB


def test_concurrency_override():
    hint_map = {"service": {"shared": {"concurrency": 2}}, "functions": {}}
    under = plan_of(hint_map, ["F"])
    over = plan_of(hint_map, ["F"], conc=200)
    assert under.channels[0].server_poll is PollMode.BUSY
    assert over.channels[0].server_poll is PollMode.EVENT


def test_lateral_polling_differs_per_side():
    plan = plan_of({
        "service": {"server": {"polling": "event"},
                    "client": {"polling": "busy"}},
        "functions": {}}, ["F"])
    ch = plan.channels[0]
    assert ch.server_poll is PollMode.EVENT
    assert ch.client_poll is PollMode.BUSY


def test_pinned_plan_shape():
    plan = pinned_plan("Svc", ["A", "B"], "rfp", PollMode.EVENT,
                       max_msg=32 * KiB)
    assert len(plan.channels) == 1
    assert plan.channels[0].protocol == "rfp"
    assert plan.routes["A"].channel == plan.routes["B"].channel == 0


def test_pinned_tcp_plan():
    plan = pinned_plan("Svc", ["A"], "tcp", PollMode.EVENT, max_msg=8 * KiB)
    assert plan.channels[0].transport == "tcp"
    assert plan.channels[0].protocol == ""


def test_engine_unknown_function_rejected():
    tb = Testbed(n_nodes=2)
    plan = pinned_plan("Svc", ["A"], "direct_writeimm", PollMode.BUSY,
                       max_msg=8 * KiB)
    engine = HatRpcEngine(tb.node(0), plan)

    def run():
        yield from engine.connect(tb.node(1))
        yield from engine.call("Nope", b"x")

    p = tb.sim.process(run())
    with pytest.raises(KeyError, match="Nope"):
        tb.sim.run(p)


def test_engine_call_before_connect_rejected():
    tb = Testbed(n_nodes=2)
    plan = pinned_plan("Svc", ["A"], "direct_writeimm", PollMode.BUSY,
                       max_msg=8 * KiB)
    engine = HatRpcEngine(tb.node(0), plan)

    def run():
        yield from engine.call("A", b"x")

    p = tb.sim.process(run())
    with pytest.raises(RuntimeError, match="not connected"):
        tb.sim.run(p)


def test_lazy_channels_open_on_first_use():
    from repro.core.runtime import HatRpcServer, service_plan_of
    from repro.idl import load_idl
    gen = load_idl("""
    service Two {
        string A(1: string x) [ hint: perf_goal = latency; ]
        string B(1: string x) [ hint: perf_goal = res_util,
                                      payload_size = 32KB; ]
    }
    """, "lazy_gen")
    tb = Testbed(n_nodes=2)

    class H:
        def A(self, x): return x
        def B(self, x): return x

    HatRpcServer(tb.node(0), gen, "Two", H()).start()
    plan = service_plan_of(gen, "Two")
    engine = HatRpcEngine(tb.node(1), plan)

    def run():
        yield from engine.connect(tb.node(0))
        assert len(engine._channels) == 0          # nothing opened yet
        # Route through the thrift layer via the runtime client instead of
        # raw engine bytes: use stub-level calls.
        from repro.core.runtime import HatRpcClient
        client = HatRpcClient(tb.node(1), gen, "Two")
        stub = yield from client.connect(tb.node(0))
        yield from stub.A("x")
        opened_after_a = len(client.engine._channels)
        yield from stub.B("y")
        return opened_after_a, len(client.engine._channels)

    p = tb.sim.process(run())
    after_a, after_b = tb.sim.run(p)
    assert after_a == 1
    assert after_b == 2


def test_plan_channels_deterministic_ordering():
    hint_map = {
        "service": {"shared": {"concurrency": 64}},
        "functions": {
            "L": {"shared": {"perf_goal": "latency"}},
            "T": {"shared": {"perf_goal": "throughput",
                             "payload_size": 128 * KiB}},
            "R": {"shared": {"perf_goal": "res_util"}},
        }}
    a = plan_of(hint_map, ["L", "T", "R"])
    b = plan_of(hint_map, ["L", "T", "R"])
    assert a == b
