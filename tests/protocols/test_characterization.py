"""Characterization tests: the Section 3.2 findings must hold in the model.

These assertions are the calibration contract for the simulator -- each one
encodes a qualitative claim of the paper (Figs. 4-5) that the higher layers
(hint selector, HatRPC engine) rely on.  If a cost-model change breaks one
of these, the reproduction is no longer faithful.
"""

import pytest

from repro.bench.proto_runner import ProtoBenchSpec, run_protocol_bench
from repro.sim.units import KiB
from repro.verbs.cq import PollMode


def lat(proto, payload, mode=PollMode.BUSY, **kw):
    spec = ProtoBenchSpec(proto, payload=payload, poll_mode=mode,
                          iters=10, warmup=3, **kw)
    return run_protocol_bench(spec).mean_latency


def tput(proto, payload, n_clients, mode, iters=15, **kw):
    spec = ProtoBenchSpec(proto, payload=payload, n_clients=n_clients,
                          poll_mode=mode, iters=iters, warmup=4, **kw)
    return run_protocol_bench(spec).throughput_ops


# -- Figure 4: latency -------------------------------------------------------

def test_direct_writeimm_best_small_latency():
    """'Direct-WriteIMM is the best choice for transferring small messages.'"""
    dwi = lat("direct_writeimm", 512)
    for other in ["direct_write_send", "chained_write_send", "rfp",
                  "pilaf", "farm", "write_rndv", "read_rndv"]:
        assert dwi < lat(other, 512), other


def test_chained_write_send_not_slower_than_separate():
    """Chaining saves one MMIO doorbell (Fig. 3c)."""
    assert lat("chained_write_send", 64) < lat("direct_write_send", 64)


def test_rfp_suitable_below_1kb_only():
    """'RFP protocol is suitable for message sizes less than 1KB.'"""
    # Near Direct-WriteIMM for small payloads...
    assert lat("rfp", 512) < lat("direct_writeimm", 512) * 1.25
    # ...but clearly behind for large ones (extra READ round trip + slab READ).
    assert lat("rfp", 128 * KiB) > lat("direct_writeimm", 128 * KiB) * 1.04


def test_server_bypass_read_count_ordering():
    """Pilaf (3 READs) > FaRM (2 READs) > RFP (1 READ) in latency."""
    assert lat("pilaf", 512) > lat("farm", 512) > lat("rfp", 512)


@pytest.mark.parametrize("proto", ["direct_writeimm", "eager_sendrecv", "rfp"])
def test_busy_polling_latency_beats_event(proto):
    """'RDMA protocols with busy polling deliver better latency.'"""
    assert lat(proto, 512) < lat(proto, 512, mode=PollMode.EVENT)


def test_eager_memcpy_penalty_for_large_messages():
    """Eager copies payloads twice; rendezvous wins for large messages."""
    assert lat("eager_sendrecv", 128 * KiB) > lat("write_rndv", 128 * KiB)


def test_eager_fine_for_small_messages():
    """...while below the threshold eager avoids the rendezvous handshake."""
    assert lat("eager_sendrecv", 512) < lat("write_rndv", 512)


def test_hybrid_tracks_eager_small_and_rndv_large():
    assert lat("hybrid_eager_rndv", 512) == pytest.approx(
        lat("eager_sendrecv", 512), rel=0.02)
    assert lat("hybrid_eager_rndv", 128 * KiB) == pytest.approx(
        lat("write_rndv", 128 * KiB), rel=0.02)


# -- Figure 5: throughput and concurrency -------------------------------------

def test_busy_polling_collapses_under_oversubscription():
    """512B, 128 clients vs a 28-core server: event polling scales, busy dies."""
    busy = tput("direct_writeimm", 512, 128, PollMode.BUSY)
    event = tput("direct_writeimm", 512, 128, PollMode.EVENT)
    assert event > 1.5 * busy


def test_busy_polling_wins_under_subscription():
    busy = tput("direct_writeimm", 512, 4, PollMode.BUSY)
    event = tput("direct_writeimm", 512, 4, PollMode.EVENT)
    assert busy > event


def test_dwi_beats_rfp_small_messages_at_scale():
    """'For small message sizes such as 512B, Direct-WriteIMM with event
    polling delivers the best performance' across subscription levels."""
    dwi = tput("direct_writeimm", 512, 64, PollMode.EVENT)
    rfp = tput("rfp", 512, 64, PollMode.EVENT)
    assert dwi > rfp


def test_rfp_beats_dwi_large_messages_at_scale():
    """'For large message sizes like 128KB ... RFP delivers considerable
    performance advantage' beyond the concurrency threshold."""
    dwi = tput("direct_writeimm", 128 * KiB, 64, PollMode.EVENT, iters=10)
    rfp = tput("rfp", 128 * KiB, 64, PollMode.EVENT, iters=10)
    assert rfp > dwi * 1.02


def test_dwi_beats_rfp_large_messages_small_scale():
    """...but below the threshold Direct-WriteIMM still wins (S5.2)."""
    dwi = tput("direct_writeimm", 128 * KiB, 8, PollMode.BUSY, iters=10)
    rfp = tput("rfp", 128 * KiB, 8, PollMode.BUSY, iters=10)
    assert dwi > rfp


# -- resource utilization (Fig. 6's res_util column) ---------------------------

def test_eager_ring_registers_far_more_memory_than_rndv():
    """Pure eager pins max-size ring slots; rendezvous pins a shared pool."""
    from repro.bench.proto_runner import run_protocol_bench as run

    eager = run(ProtoBenchSpec("eager_sendrecv", payload=512,
                               max_msg=512 * KiB, iters=5, warmup=1))
    rndv = run(ProtoBenchSpec("write_rndv", payload=512,
                              max_msg=512 * KiB, iters=5, warmup=1))
    assert eager.server_registered_bytes > 5 * rndv.server_registered_bytes


def test_event_polling_uses_less_server_cpu():
    busy = run_protocol_bench(ProtoBenchSpec(
        "direct_writeimm", payload=512, n_clients=8, poll_mode=PollMode.BUSY,
        iters=15, warmup=4))
    event = run_protocol_bench(ProtoBenchSpec(
        "direct_writeimm", payload=512, n_clients=8, poll_mode=PollMode.EVENT,
        iters=15, warmup=4))
    # Busy pollers burn cores; with the GPS model that shows up as runnable
    # spinners, which we observe through wall-clock inflation per op instead.
    # CPU utilization of *useful* work must not be higher under event mode.
    assert event.server_cpu_utilization <= busy.server_cpu_utilization * 1.5
