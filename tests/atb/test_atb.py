"""ATB benchmark tests: the Section 5.2-5.3 effects at reduced scale."""

import pytest

from repro.atb import MixBenchmark, ThroughputBenchmark
from repro.atb import throughput as echo_bench
from repro.atb.harness import EchoHandler
from repro.atb.idl import load_atb_module
from repro.sim.units import KiB, us


def echo_latency(mode, payload, iters, warmup=5):
    """Fig. 11's run: one client, latency-goal hints."""
    return ThroughputBenchmark(mode=mode, payload=payload, n_clients=1,
                               iters=iters, warmup=warmup,
                               goal="latency").run().latency


def test_atb_idl_compiles_with_hints():
    gen = load_atb_module(goal="latency", payload=4096, concurrency=8)
    hints = gen.SERVICE_HINTS["ATBench"]
    assert hints["service"]["shared"]["perf_goal"] == "latency"
    assert hints["service"]["shared"]["payload_size"] == 4096
    assert hints["functions"]["LatCall"]["shared"]["perf_goal"] == "latency"


def test_latency_benchmark_runs_all_modes():
    for mode in ("hatrpc", "hybrid_eager_rndv", "ipoib"):
        stats = echo_latency(mode, 512, iters=6, warmup=2)
        assert stats.count == 6
        assert stats.mean > 0


def test_hatrpc_latency_beats_hybrid_baseline():
    """Fig. 11: 37-54% improvement over Hybrid-EagerRNDV for small sizes."""
    hat = echo_latency("hatrpc", 512, iters=10)
    hyb = echo_latency("hybrid_eager_rndv", 512, iters=10)
    assert hat.mean < hyb.mean
    # The gap should be substantial (paper: >= 37% for <= 4KB).
    assert (hyb.mean - hat.mean) / hyb.mean > 0.10


def test_hatrpc_latency_matches_direct_writeimm():
    """Fig. 11: 'the difference between HatRPC and Direct-WriteIMM is
    within 3%' -- HatRPC selects that protocol and adds only routing."""
    hat = echo_latency("hatrpc", 512, iters=10)
    dwi = echo_latency("direct_writeimm", 512, iters=10)
    assert hat.mean == pytest.approx(dwi.mean, rel=0.05)


def test_hatrpc_large_payload_latency():
    hat = echo_latency("hatrpc", 128 * KiB, iters=8)
    hyb = echo_latency("hybrid_eager_rndv", 128 * KiB, iters=8)
    assert hat.mean < hyb.mean


def test_echo_checks_response_length(monkeypatch):
    """A server answering fewer bytes than the payload fails the run."""
    class ShortEcho(EchoHandler):
        def __init__(self, node, resp_payload):
            super().__init__(node, resp_payload - 1)

    monkeypatch.setattr(echo_bench, "EchoHandler", ShortEcho)
    with pytest.raises(AssertionError, match="answered 511 bytes"):
        echo_latency("hatrpc", 512, iters=2, warmup=1)


def test_throughput_benchmark_runs():
    r = ThroughputBenchmark(mode="hatrpc", payload=512, n_clients=8,
                            iters=10, warmup=3).run()
    assert r.ops_per_sec > 0
    assert r.latency.count == 8 * 10


def test_hatrpc_throughput_beats_ipoib():
    hat = ThroughputBenchmark(mode="hatrpc", payload=512, n_clients=8,
                              iters=10, warmup=3).run()
    ipo = ThroughputBenchmark(mode="ipoib", payload=512, n_clients=8,
                              iters=10, warmup=3).run()
    assert hat.ops_per_sec > 2 * ipo.ops_per_sec


def test_mix_benchmark_isolates_functions():
    """Function-level hints put LatCall and TputCall on separate channels;
    the latency calls must stay fast despite throughput traffic."""
    r = MixBenchmark(mode="hatrpc", payload=512, n_clients=8, iters=12,
                     warmup=3).run()
    assert r.lat_stats.count > 0 and r.tput_stats.count > 0
    assert r.lat_stats.mean < 100 * us


def test_mix_hatrpc_not_worse_than_hybrid():
    hat = MixBenchmark(mode="hatrpc", payload=512, n_clients=8, iters=12,
                       warmup=3).run()
    hyb = MixBenchmark(mode="hybrid_eager_rndv", payload=512, n_clients=8,
                       iters=12, warmup=3).run()
    assert hat.lat_stats.mean < hyb.lat_stats.mean * 1.05


def test_mix_deterministic_schedule():
    a = MixBenchmark(mode="hatrpc", payload=512, n_clients=4, iters=8,
                     warmup=2, seed=7).run()
    b = MixBenchmark(mode="hatrpc", payload=512, n_clients=4, iters=8,
                     warmup=2, seed=7).run()
    assert a.lat_stats.samples == b.lat_stats.samples
