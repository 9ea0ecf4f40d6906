"""Engine failure handling under injected faults: deadlines, retries,
idempotency gating, failover/failback, lifecycle, and replay determinism."""

import random

import pytest

from repro.core import engine as engine_mod
from repro.core import resilience
from repro.core.engine import HatRpcEngine
from repro.core.resilience import CircuitBreaker, RetryPolicy
from repro.core.runtime import (HatRpcServer, hatrpc_connect,
                                service_plan_of)
from repro.faults import FaultInjector, FaultPlan, LinkFlap, QPError
from repro.idl import load_idl
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException

KV_IDL = """
service MiniKV {
    hint: concurrency = 4;

    string Get(1: string k) [ hint: perf_goal = latency; ]
    void Put(1: string k, 2: string v) [ hint: perf_goal = latency; ]
    string Slow(1: string k) [ hint: perf_goal = latency; ]
    string Legacy(1: string k) [ hint: transport = tcp; ]
}
"""


class KVHandler:
    def __init__(self, tb):
        self.tb = tb
        self.store = {}
        self.puts = 0

    def Get(self, k):
        return self.store.get(k, "")

    def Put(self, k, v):
        self.store[k] = v
        self.puts += 1

    def Slow(self, k):
        yield self.tb.sim.timeout(10 * ms)
        return k

    def Legacy(self, k):
        return self.store.get(k, "")


@pytest.fixture(scope="module")
def gen():
    return load_idl(KV_IDL, "resilience_gen")


def start(tb, gen):
    handler = KVHandler(tb)
    server = HatRpcServer(tb.node(0), gen, "MiniKV", handler).start()
    return server, handler


def connect(tb, gen, **kw):
    kw.setdefault("rng", random.Random(42))
    return hatrpc_connect(tb.node(1), tb.node(0), gen, "MiniKV", **kw)


# -- deadlines ---------------------------------------------------------------

def test_deadline_expiry_raises_timed_out_then_recovers(gen):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)

    def run():
        stub = yield from connect(tb, gen, deadline=200 * us)
        engine = stub._hatrpc.engine
        with pytest.raises(TTransportException) as ei:
            yield from stub.Slow("x")
        assert ei.value.type == TTransportException.TIMED_OUT
        assert engine.faults.timeouts == 1
        # The in-flight channel was discarded; the next call reconnects
        # transparently and completes inside the same budget.
        yield from stub.Put("k", "v")
        value = yield from stub.Get("k")
        return value, engine

    value, engine = tb.sim.run(tb.sim.process(run()))
    assert value == "v"
    assert engine.faults.reconnects >= 1
    assert any(kind == "timeout" for _, kind, *_ in engine.fault_trace)


# -- retry + idempotency -----------------------------------------------------

def test_idempotent_get_retries_through_qp_error(gen):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)
    FaultInjector(tb, FaultPlan(events=(
        QPError("node1", at=100 * us),))).arm()

    def run():
        stub = yield from connect(tb, gen, idempotent=("Get",))
        yield from stub.Put("k", "v1")
        yield tb.sim.timeout(200 * us)     # the QP dies at 100us
        value = yield from stub.Get("k")   # retried on a fresh connection
        return value, stub._hatrpc.engine

    value, engine = tb.sim.run(tb.sim.process(run()))
    assert value == "v1"
    assert engine.faults.retries >= 1
    assert engine.faults.reconnects >= 1
    assert engine.faults.channel_failures >= 1
    assert engine.faults.blind_retries_prevented == 0
    # the server side saw the dead connection and released it
    assert sum(getattr(s, "teardowns", 0)
               for s in server.servers) >= 1


def test_non_idempotent_put_is_never_blind_retried(gen):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)
    FaultInjector(tb, FaultPlan(events=(
        QPError("node1", at=100 * us),))).arm()

    def run():
        stub = yield from connect(tb, gen, idempotent=("Get",))
        yield from stub.Put("k", "v1")
        yield tb.sim.timeout(200 * us)
        engine = stub._hatrpc.engine
        with pytest.raises(TTransportException):
            yield from stub.Put("k", "v2")  # fails post-send: no retry
        assert engine.faults.blind_retries_prevented == 1
        # the sanctioned path: the application re-issues under a fresh
        # seqid (the stub allocates one per call)
        yield from stub.Put("k", "v2")
        return stub._hatrpc.engine

    engine = tb.sim.run(tb.sim.process(run()))
    assert handler.puts == 2               # v1 + re-issued v2; no double-apply
    assert handler.store["k"] == "v2"
    assert any(kind == "blind_retry_prevented"
               for _, kind, *_ in engine.fault_trace)


def test_seqid_gate_refuses_duplicate_wire_send(gen):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)

    def run():
        stub = yield from connect(tb, gen)
        yield from stub.Put("k", "v")
        engine = stub._hatrpc.engine
        used = [s for fn, s in engine._sent_seqids if fn == "Put"]
        assert len(used) == 1
        with pytest.raises(TTransportException, match="fresh seqid"):
            yield from engine.call("Put", b"replayed-bytes", seqid=used[0])
        assert engine.faults.blind_retries_prevented == 1
        return None

    tb.sim.run(tb.sim.process(run()))
    assert handler.puts == 1               # the replay never hit the wire


# -- failover / failback -----------------------------------------------------

def test_failover_to_tcp_when_rdma_listeners_gone(gen):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)
    handler.store["k"] = "v"
    # Kill every RDMA listener; only the Legacy TCP channel keeps serving.
    for ch, srv in zip(server.plan.channels, server.servers):
        if ch.transport == "rdma":
            srv.stop()

    def run():
        stub = yield from connect(tb, gen, idempotent=("Get",))
        value = yield from stub.Get("k")   # degrades onto the TCP channel
        return value, stub._hatrpc.engine

    value, engine = tb.sim.run(tb.sim.process(run()))
    assert value == "v"
    assert engine.faults.failovers == 1
    assert engine.faults.breaker_opens == 1
    assert engine.faults.retries >= 1
    tcp_idx = next(ch.index for ch in engine.plan.channels
                   if ch.transport == "tcp")
    assert any(kind == "failover" and chan == tcp_idx
               for _, kind, _fn, chan, _d in engine.fault_trace)


def test_failback_once_primary_breaker_readmits(gen):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)
    handler.store["k"] = "v"

    def run():
        stub = yield from connect(tb, gen, idempotent=("Get",))
        engine = stub._hatrpc.engine
        primary = engine.plan.routes["Get"].channel
        yield from stub.Get("k")               # healthy, on the primary
        br = engine._breaker(primary)
        for _ in range(resilience.BREAKER_THRESHOLD):
            br.record_failure()                # primary declared dead
        yield from stub.Get("k")
        assert engine.faults.failovers == 1
        yield tb.sim.timeout(resilience.BREAKER_RESET_AFTER + 1 * us)
        yield from stub.Get("k")               # HALF_OPEN probe -> primary
        assert engine.faults.failbacks == 1
        assert br.state == br.CLOSED
        return engine

    engine = tb.sim.run(tb.sim.process(run()))
    assert any(kind == "failback" for _, kind, *_ in engine.fault_trace)


# -- lifecycle ---------------------------------------------------------------

def test_close_is_idempotent_and_is_open_tracks_state(gen):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)

    def run():
        stub = yield from connect(tb, gen)
        client = stub._hatrpc
        yield from stub.Put("k", "v")
        assert client.engine.is_open()
        assert client.trans.is_open()          # TRdma mirrors the engine
        client.close()
        client.close()                          # second close is a no-op
        assert not client.engine.is_open()
        assert not client.trans.is_open()
        assert client.engine._channels == {}
        with pytest.raises(RuntimeError, match="not connected"):
            yield from stub.Get("k")
        return None

    tb.sim.run(tb.sim.process(run()))


def test_connect_failure_leaves_no_half_open_channels(gen):
    tb = Testbed(n_nodes=2)                    # no server at all
    engine = HatRpcEngine(tb.node(1), service_plan_of(gen, "MiniKV"))

    def run():
        with pytest.raises((ConnectionError, TTransportException)):
            yield from engine.connect(tb.node(0), eager=True)
        return None

    tb.sim.run(tb.sim.process(run()))
    assert not engine.is_open()
    assert engine._channels == {}


# -- policy objects ----------------------------------------------------------

def test_backoff_schedule_is_seeded_and_capped():
    policy = RetryPolicy(base_backoff=50 * us, multiplier=2.0,
                         max_backoff=200 * us, jitter=0.2)
    s1 = [policy.backoff(i, random.Random(5)) for i in range(6)]
    s2 = [policy.backoff(i, random.Random(5)) for i in range(6)]
    assert s1 == s2                            # same seed, same schedule
    assert all(b <= 200 * us * 1.2 + 1e-12 for b in s1)
    plain = RetryPolicy(base_backoff=50 * us, multiplier=2.0,
                        max_backoff=200 * us, jitter=0.0)
    assert [plain.backoff(i) for i in range(4)] == \
        pytest.approx([50 * us, 100 * us, 200 * us, 200 * us])


def test_circuit_breaker_state_machine(monkeypatch):
    class FakeSim:
        now = 0.0

    monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 2)
    monkeypatch.setattr(resilience, "BREAKER_RESET_AFTER", 100 * us)
    sim = FakeSim()
    opened = []
    br = CircuitBreaker(sim, on_open=opened.append)
    assert br.allow()
    br.record_failure()
    assert br.state == br.CLOSED and br.allow()
    br.record_failure()
    assert br.state == br.OPEN and not br.allow()
    assert br.opens == 1 and opened == [br]
    sim.now = 150 * us
    assert br.allow()                          # timed probe window
    assert br.state == br.HALF_OPEN
    br.record_failure()                        # probe failed
    assert br.state == br.OPEN and br.opens == 2
    sim.now = 300 * us
    assert br.allow()
    br.record_success()
    assert br.state == br.CLOSED and br.allow()


def test_circuit_breaker_transition_log_bounded_under_flapping(
        gen, monkeypatch):
    """Sustained flapping must not grow the engine's recovery log without
    limit: ``fault_trace`` keeps the newest ``FAULT_TRACE_CAP`` entries
    and counts the evicted ones."""
    cap = 8
    reset_after = 10 * us
    monkeypatch.setattr(engine_mod, "FAULT_TRACE_CAP", cap)
    monkeypatch.setattr(resilience, "BREAKER_THRESHOLD", 1)
    monkeypatch.setattr(resilience, "BREAKER_RESET_AFTER", reset_after)
    tb = Testbed(n_nodes=2)
    engine = HatRpcEngine(tb.node(1), service_plan_of(gen, "MiniKV"))
    sim = tb.sim
    br = engine._breaker(0)
    # Each lap is CLOSED->OPEN, OPEN->HALF_OPEN, HALF_OPEN->CLOSED, and
    # the open lands in the log: 100 laps of flapping.
    for _ in range(100):
        br.record_failure()                    # -> OPEN
        sim.now += reset_after + 1 * us
        assert br.allow()                      # -> HALF_OPEN probe
        br.record_success()                    # -> CLOSED
    assert br.state == br.CLOSED and br.opens == 100
    assert engine.faults.breaker_opens == 100
    assert len(engine.fault_trace) == cap      # bounded, not 100
    assert engine.fault_trace_dropped == 100 - cap
    # The survivors are the most recent entries, in order.
    times = [t for t, *_ in engine.fault_trace]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(99 * (reset_after + 1 * us))
    assert {kind for _, kind, *_ in engine.fault_trace} == {"breaker_open"}


# -- server-side write-transaction abort -------------------------------------

def test_hatkv_write_txn_aborts_when_handler_dies_mid_rpc():
    """A handler that dies before its write is applied leaves nothing, and
    the writer is not leaked: the Put queued behind another is dropped."""
    from repro.hatkv.backend import LmdbBackend
    tb = Testbed(n_nodes=1)
    backend = LmdbBackend(tb.node(0))

    def put(key, value):
        yield from backend.put(key, value)

    tb.sim.process(put(b"k0", b"v0"))
    victim = tb.sim.process(put(b"k1", b"v1"))
    victim.defuse()                            # its failure is expected

    def killer():
        yield tb.sim.timeout(0.15 * us)        # k0 mid-write, k1 queued
        victim.interrupt("connection died")

    tb.sim.process(killer())
    tb.sim.run()
    assert backend.aborts == 1
    assert backend.writes == 1

    def check():
        missing = yield from backend.get(b"k1")
        yield from backend.put(b"k1", b"v2")   # the writer was released
        value = yield from backend.get(b"k1")
        return missing, value

    missing, value = tb.sim.run(tb.sim.process(check()))
    assert missing is None                     # k1 was never applied
    assert value == b"v2"
    assert backend.writes == 2


def test_hatkv_lone_writer_dying_mid_apply_still_commits():
    """A writer that leads its own txn finishes it when its handler dies
    mid-apply (the CPU job it was on keeps running): the write lands."""
    from repro.hatkv.backend import LmdbBackend
    tb = Testbed(n_nodes=1)
    backend = LmdbBackend(tb.node(0))
    victim = tb.sim.process(backend.put(b"k1", b"v1"))
    victim.defuse()

    def killer():
        yield tb.sim.timeout(0.15 * us)        # mid-write, pre-commit
        victim.interrupt("connection died")

    tb.sim.process(killer())
    tb.sim.run()
    assert not victim.ok
    assert (backend.writes, backend.aborts) == (1, 0)
    assert tb.sim.run(tb.sim.process(backend.get(b"k1"))) == b"v1"


# -- replay determinism ------------------------------------------------------

def _faulted_scenario(gen, seed):
    tb = Testbed(n_nodes=2)
    server, handler = start(tb, gen)
    FaultInjector(tb, FaultPlan(seed=seed, events=(
        QPError("node1", at=150 * us),
        LinkFlap("node0", start=400 * us, duration=300 * us),
    ))).arm()

    def run():
        stub = yield from connect(tb, gen, idempotent=("Get",),
                                  rng=random.Random(seed))
        yield from stub.Put("a", "1")
        for _ in range(10):
            try:
                yield from stub.Get("a")
            except TTransportException:
                pass                           # flap window: expected
            yield tb.sim.timeout(60 * us)
        return stub._hatrpc.engine.fault_trace

    return tb.sim.run(tb.sim.process(run()))


def test_same_seed_replays_identical_fault_trace(gen):
    t1 = _faulted_scenario(gen, seed=5)
    t2 = _faulted_scenario(gen, seed=5)
    assert t1 == t2
    assert len(t1) > 0
    assert any(kind == "retry" for _, kind, *_ in t1)
