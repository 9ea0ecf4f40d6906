"""Exhaustive tests of the Figure 6 hint -> protocol mapping."""

import pytest

from repro.core.hints import resolve_hints
from repro.core.selector import select_protocol, subscription_regime
from repro.verbs.cq import PollMode


def hints(**kw):
    merged = {"shared": kw}
    return resolve_hints(merged, None, "server")


def test_subscription_regimes():
    assert subscription_regime(1) == "under"
    assert subscription_regime(16) == "under"
    assert subscription_regime(17) == "full"
    assert subscription_regime(28) == "full"
    assert subscription_regime(29) == "over"
    assert subscription_regime(512) == "over"


# -- latency column of Figure 6 ------------------------------------------------

@pytest.mark.parametrize("payload", [64, 512, 4096, 128 * 1024])
@pytest.mark.parametrize("conc", [1, 16, 64])
def test_latency_goal_always_dwi_busy(payload, conc):
    c = select_protocol(hints(perf_goal="latency", payload_size=payload,
                              concurrency=conc))
    assert c.protocol == "direct_writeimm"
    assert c.poll_mode is PollMode.BUSY


# -- throughput column ---------------------------------------------------------

def test_throughput_small_always_dwi():
    for conc in (1, 16, 64, 512):
        c = select_protocol(hints(perf_goal="throughput", payload_size=512,
                                  concurrency=conc))
        assert c.protocol == "direct_writeimm"


def test_throughput_small_polling_follows_subscription():
    under = select_protocol(hints(perf_goal="throughput", payload_size=512,
                                  concurrency=8))
    over = select_protocol(hints(perf_goal="throughput", payload_size=512,
                                 concurrency=128))
    assert under.poll_mode is PollMode.BUSY
    assert over.poll_mode is PollMode.EVENT


def test_throughput_large_switches_to_rfp_past_threshold():
    """S5.2: 'switches to RFP with event-based polling when the concurrency
    is above the threshold 16'."""
    below = select_protocol(hints(perf_goal="throughput",
                                  payload_size=128 * 1024, concurrency=16))
    above = select_protocol(hints(perf_goal="throughput",
                                  payload_size=128 * 1024, concurrency=17))
    assert below.protocol == "direct_writeimm"
    assert below.poll_mode is PollMode.BUSY
    assert above.protocol == "rfp"
    assert above.poll_mode is PollMode.EVENT


def test_rfp_switch_respects_measured_crossover():
    """Mid-size payloads stay on Direct-WriteIMM even at scale: this
    reproduction's Fig. 5 data puts the RFP crossover near 48 KiB."""
    from repro.core.selector import RFP_SWITCH_THRESHOLD
    mid = select_protocol(hints(perf_goal="throughput", concurrency=64,
                                payload_size=10 * 1024))
    past = select_protocol(hints(perf_goal="throughput", concurrency=64,
                                 payload_size=RFP_SWITCH_THRESHOLD + 1))
    assert mid.protocol == "direct_writeimm"
    assert past.protocol == "rfp"


# -- res_util column ------------------------------------------------------------

def test_res_util_under_subscription():
    small = select_protocol(hints(perf_goal="res_util", payload_size=512,
                                  concurrency=4))
    large = select_protocol(hints(perf_goal="res_util",
                                  payload_size=64 * 1024, concurrency=4))
    assert small.protocol == "direct_writeimm"
    assert large.protocol == "write_rndv"


def test_res_util_at_scale_converges_to_eager_and_rndv():
    """Fig. 6: full/over-subscription res_util -> Eager-SendRecv (small),
    Write/Read-RNDV (large)."""
    small = select_protocol(hints(perf_goal="res_util", payload_size=512,
                                  concurrency=64))
    large = select_protocol(hints(perf_goal="res_util",
                                  payload_size=64 * 1024, concurrency=64))
    assert small.protocol == "eager_sendrecv"
    assert large.protocol == "write_rndv"
    assert small.poll_mode is PollMode.EVENT


# -- overrides -------------------------------------------------------------------

def test_explicit_polling_override():
    c = select_protocol(hints(perf_goal="latency", polling="event"))
    assert c.poll_mode is PollMode.EVENT
    c = select_protocol(hints(perf_goal="res_util", polling="busy",
                              concurrency=64))
    assert c.poll_mode is PollMode.BUSY


def test_tcp_transport_hint_bypasses_rdma():
    c = select_protocol(hints(transport="tcp", perf_goal="latency"))
    assert c.transport == "tcp"
    assert not c.is_rdma
    assert c.protocol == ""


def test_every_choice_names_registered_protocol():
    from repro.protocols import protocol_names
    known = set(protocol_names())
    for goal in ("latency", "throughput", "res_util"):
        for payload in (64, 4096, 4097, 512 * 1024):
            for conc in (1, 16, 17, 28, 29, 512):
                c = select_protocol(hints(perf_goal=goal,
                                          payload_size=payload,
                                          concurrency=conc))
                assert c.protocol in known
                assert c.rationale  # every decision is explained


def test_choice_is_deterministic():
    h = hints(perf_goal="throughput", payload_size=8192, concurrency=100)
    assert select_protocol(h) == select_protocol(h)


def test_low_priority_takes_resource_efficient_path():
    """S4.1: heartbeat-style functions 'optimized with low priority and
    give way to other significant RPC functions'."""
    normal = select_protocol(hints(perf_goal="latency", payload_size=256))
    low = select_protocol(hints(perf_goal="latency", payload_size=256,
                                priority="low"))
    assert normal.poll_mode is PollMode.BUSY
    assert low.poll_mode is PollMode.EVENT  # never pins a core
    assert low.protocol in ("direct_writeimm", "eager_sendrecv")


def test_low_priority_isolated_from_hot_path():
    """A low-priority heartbeat lands on its own channel, away from the
    latency-critical traffic."""
    from repro.core.engine import build_service_plan
    plan = build_service_plan("Svc", {
        "service": {"shared": {"perf_goal": "latency"}},
        "functions": {"Heartbeat": {"shared": {"priority": "low"}}},
    }, ["Call", "Heartbeat"])
    assert plan.routes["Call"].channel != plan.routes["Heartbeat"].channel


def test_high_priority_is_default_behaviour():
    a = select_protocol(hints(perf_goal="throughput", priority="high"))
    b = select_protocol(hints(perf_goal="throughput"))
    assert (a.protocol, a.poll_mode) == (b.protocol, b.poll_mode)
