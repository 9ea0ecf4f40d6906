"""Regression tests for the engine's in-flight accounting leaks, plus the
pipelined-path invariants that guard against reintroducing them: after any
timed-out call every inflight gauge reads 0, committed traces carry no
dangling attempt spans, the idempotency ledger stays bounded, close() wipes
resilience state, and the bounded window backpressures / correlates
out-of-order completions without losing a call."""

import random
from collections import deque

import pytest

from repro import frame, obs
from repro.core import pipeline as pipeline_mod
from repro.core.engine import pinned_plan, plan_with_window
from repro.core.pipeline import BoundedSeqidSet, ChannelPipeline
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.idl import load_idl
from repro.obs import trace as obstrace
from repro.sim.core import Simulator
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException
from repro.verbs.cq import PollMode

# earlier test modules in a full run capture instruments registry-less,
# which makes our late obs.install() warn; that mismatch is expected here
pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.obs.ObsInstallOrderWarning")

KV_IDL = """
service MiniKV {
    hint: concurrency = 4;

    string Get(1: string k) [ hint: perf_goal = latency; ]
    void Put(1: string k, 2: string v) [ hint: perf_goal = latency; ]
    string Slow(1: string k) [ hint: perf_goal = latency; ]
}
"""


class KVHandler:
    def __init__(self, tb):
        self.tb = tb
        self.store = {}

    def Get(self, k):
        return self.store.get(k, "")

    def Put(self, k, v):
        self.store[k] = v

    def Slow(self, k):
        yield self.tb.sim.timeout(10 * ms)
        return k


@pytest.fixture(scope="module")
def gen():
    return load_idl(KV_IDL, "engine_leaks_gen")


def connect(tb, gen, **kw):
    kw.setdefault("rng", random.Random(42))
    return hatrpc_connect(tb.node(1), tb.node(0), gen, "MiniKV", **kw)


def assert_gauges_zero(reg, engine):
    for ch in engine.plan.channels:
        g = reg.gauge(f"engine.ch{ch.index}.inflight")
        assert g.value == 0, f"leaked {g.name}={g.value}"
        occ = reg.gauge(f"engine.ch{ch.index}.window_occupancy")
        assert occ.value == 0, f"leaked {occ.name}={occ.value}"


# -- satellite: gauge leak on deadline interrupt ------------------------------

def test_inflight_gauge_zero_after_deadline_timeout(gen):
    with obs.installed() as reg:
        tb = Testbed(n_nodes=2)
        HatRpcServer(tb.node(0), gen, "MiniKV", KVHandler(tb)).start()

        def run():
            stub = yield from connect(tb, gen, deadline=200 * us)
            with pytest.raises(TTransportException) as ei:
                yield from stub.Slow("x")
            assert ei.value.type == TTransportException.TIMED_OUT
            return stub._hatrpc.engine

        engine = tb.sim.run(tb.sim.process(run()))
        tb.sim.run()
        assert engine.faults.timeouts == 1
        assert_gauges_zero(reg, engine)


# -- satellite: dangling attempt span on timeout ------------------------------

def test_timed_out_call_commits_no_dangling_attempt_span(gen):
    with obstrace.installed(sample_rate=0.0) as col:
        tb = Testbed(n_nodes=2)
        HatRpcServer(tb.node(0), gen, "MiniKV", KVHandler(tb)).start()

        def run():
            stub = yield from connect(tb, gen, deadline=200 * us)
            with pytest.raises(TTransportException):
                yield from stub.Slow("x")
            return None

        tb.sim.run(tb.sim.process(run()))
        tb.sim.run()

        slow = [spans for spans in col.traces().values()
                if any(s.kind == "client" and not s.parent_span_id
                       and s.name == "Slow" for s in spans)]
        assert len(slow) == 1
        spans = slow[0]
        attempts = [s for s in spans if s.name.startswith("attempt#")]
        assert attempts, "the interrupted attempt never committed"
        assert any(s.status == "interrupted" for s in attempts)
        # every committed span is closed: end at/after start, nothing open
        for s in spans:
            assert s.end >= s.start


# -- satellite: bounded idempotency ledger ------------------------------------

def test_bounded_seqid_set_evicts_lru(monkeypatch):
    monkeypatch.setattr(pipeline_mod, "SEQID_CAP", 3)
    s = BoundedSeqidSet()
    for i in range(3):
        s.add(("Put", i))
    s.add(("Put", 0))                       # refresh: 0 is now newest
    s.add(("Put", 3))                       # evicts the oldest -> ("Put", 1)
    assert ("Put", 1) not in s
    assert ("Put", 0) in s and ("Put", 2) in s and ("Put", 3) in s
    assert len(s) == 3
    assert s.evictions == 1
    s.discard(("Put", 2))
    assert len(s) == 2


class _CountingSet(set):
    """A set that counts membership tests: the keys a walk visits."""

    visits = 0

    def __contains__(self, key):
        self.visits += 1
        return super().__contains__(key)


def test_bounded_seqid_set_eviction_cost_is_flat(monkeypatch):
    # Regression: at the cap, every add and every unpin rebuilt the list
    # of all unpinned keys -- ~250x the per-call cost once 4096 keys were
    # held (a quarter of atb_small's host time).  The walk from the oldest
    # key must stop at the victim, having visited only the live keys ahead
    # of it.
    monkeypatch.setattr(pipeline_mod, "SEQID_CAP", 4096)
    s = BoundedSeqidSet()
    s._pinned = pinned = _CountingSet()
    live = [("Slow", i) for i in range(8)]
    for key in live:
        s.add(key, pinned=True)
    for i in range(20000):
        if i == 18000:
            before = pinned.visits
        s.add(("Echo", i), pinned=True)
        s.unpin(("Echo", i))
    assert len(s) == 4096 and s.evictions == len(live) + 20000 - 4096
    # Each add at the cap evicts one key; the unpin after it evicts none.
    assert pinned.visits - before == 2000 * (len(live) + 1)


def test_bounded_seqid_set_never_evicts_pinned(monkeypatch):
    # Regression: cap pressure used to LRU-evict the seqid of a live
    # (still-in-flight) slow call, silently re-opening its duplicate-send
    # window.  Pinned keys must ride out any amount of pressure.
    monkeypatch.setattr(pipeline_mod, "SEQID_CAP", 2)
    s = BoundedSeqidSet()
    s.add(("Slow", 1), pinned=True)
    s.add(("Slow", 2), pinned=True)
    s.add(("Slow", 3), pinned=True)
    assert len(s) == 3                # live keys may overflow the cap
    assert s.evictions == 0           # ...without evicting each other
    s.add(("Put", 1))                 # historical: first out under pressure
    assert ("Put", 1) not in s
    for i in (1, 2, 3):
        assert ("Slow", i) in s and s.pinned(("Slow", i))
    s.unpin(("Slow", 1))              # completed -> merely historical
    assert not s.pinned(("Slow", 1))
    assert len(s) == 2 and ("Slow", 1) not in s
    s.discard(("Slow", 2))            # discard clears the pin too
    assert not s.pinned(("Slow", 2))


def test_live_seqids_survive_cap_pressure_from_fast_calls(monkeypatch):
    # A window of stalled Slow calls + a tiny ledger cap: fast Puts on
    # another channel churning through the ledger must never evict the
    # Slows' live seqids (pre-fix, plain LRU evicted them oldest-first).
    # The payload hints put Put on its own channel, so the stalled Slow
    # server loop does not serialize the pressure traffic behind it.
    pin_gen = load_idl("""
service PinKV {
    hint: concurrency = 4;

    string Slow(1: string k) [ hint: perf_goal = latency; ]
    void Put(1: string k, 2: string v)
        [ c_hint: payload_size = 10KB; s_hint: payload_size = 64; ]
}
""", "seqid_pin_gen")
    monkeypatch.setattr(pipeline_mod, "SEQID_CAP", 2)
    tb = Testbed(n_nodes=2)

    class Handler:
        def Slow(self, k):
            yield tb.sim.timeout(10 * ms)
            return k

        def Put(self, k, v):
            pass

    HatRpcServer(tb.node(0), pin_gen, "PinKV", Handler(),
                 pipeline=True).start()

    def run():
        stub = yield from hatrpc_connect(tb.node(1), tb.node(0), pin_gen,
                                         "PinKV", rng=random.Random(42),
                                         pipeline=True)
        engine = stub._hatrpc.engine
        caller = stub._hatrpc.async_caller()
        h1 = yield from caller.call_async("Slow", "a")
        h2 = yield from caller.call_async("Slow", "b")
        live = [k for k in engine._sent_seqids if k[0] == "Slow"]
        assert len(live) == 2
        for i in range(6):            # cap-thrashing fast traffic
            yield from stub.Put("k%d" % i, "v")
        for key in live:
            assert key in engine._sent_seqids, f"live {key} evicted"
            assert engine._sent_seqids.pinned(key)
        assert (yield from h1.wait()) == "a"
        assert (yield from h2.wait()) == "b"
        for key in live:              # completed -> unpinned, evictable
            assert not engine._sent_seqids.pinned(key)
        assert len(engine._sent_seqids) <= 2
        return engine

    tb.sim.run(tb.sim.process(run()))


def test_engine_seqid_ledger_stays_bounded(gen, monkeypatch):
    monkeypatch.setattr(pipeline_mod, "SEQID_CAP", 4)
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "MiniKV", KVHandler(tb)).start()

    def run():
        stub = yield from connect(tb, gen)
        engine = stub._hatrpc.engine
        for i in range(10):
            yield from stub.Put("k%d" % i, "v")
        return engine

    engine = tb.sim.run(tb.sim.process(run()))
    assert len(engine._sent_seqids) <= 4
    assert engine._sent_seqids.evictions >= 6
    # the ledger still iterates as (fn, seqid) tuples for the gate
    assert all(fn == "Put" for fn, _ in engine._sent_seqids)


# -- satellite: close() wipes resilience state --------------------------------

def test_reconnect_after_close_sees_no_phantom_failback(gen):
    tb = Testbed(n_nodes=2)
    HatRpcServer(tb.node(0), gen, "MiniKV", KVHandler(tb)).start()

    def run():
        stub = yield from connect(tb, gen)
        client = stub._hatrpc
        engine = client.engine
        yield from stub.Put("k", "v")
        primary = engine.plan.routes["Get"].channel
        # pretend a failover happened: routing memory points off-primary
        engine._last_channel[primary] = primary + 1
        engine._breaker(primary).record_failure()
        client.close()
        assert engine._breakers == {}
        assert engine._last_channel == {}
        assert engine._pipelines == {}
        # a fresh connection must not report a failback it never performed
        stub2 = yield from connect(tb, gen)
        value = yield from stub2.Get("k")
        return value, stub2._hatrpc.engine

    value, engine2 = tb.sim.run(tb.sim.process(run()))
    assert value == "v"
    assert engine2.faults.failbacks == 0
    assert not any(kind == "failback" for _, kind, *_ in engine2.fault_trace)


# -- tentpole: window backpressure --------------------------------------------

def test_window_backpressure_blocks_the_overflow_post(gen):
    tb = Testbed(n_nodes=2)
    fns = gen.SERVICE_FUNCTIONS["MiniKV"]
    plan = plan_with_window(pinned_plan("MiniKV", fns, "direct_writeimm",
                                        PollMode.BUSY, max_msg=16384), 2)
    HatRpcServer(tb.node(0), gen, "MiniKV", KVHandler(tb), plan=plan).start()

    def run():
        stub = yield from connect(tb, gen, plan=plan)
        caller = stub._hatrpc.async_caller()
        h1 = yield from caller.call_async("Slow", "a")   # slot 1
        h2 = yield from caller.call_async("Slow", "b")   # slot 2: window full
        t_blocked = tb.sim.now
        h3 = yield from caller.call_async("Slow", "c")   # must wait ~10ms
        t_admitted = tb.sim.now
        engine = stub._hatrpc.engine
        pipe = next(iter(engine._pipelines.values()))
        assert pipe.window == 2
        assert pipe.high_water == 2                      # never 3 in flight
        r1 = yield from h1.wait()
        r2 = yield from h2.wait()
        r3 = yield from h3.wait()
        return (r1, r2, r3), t_admitted - t_blocked, engine

    results, stall, engine = tb.sim.run(tb.sim.process(run()))
    assert results == ("a", "b", "c")
    assert stall >= 9 * ms            # admitted only once a response freed a slot
    assert engine.faults.timeouts == 0


# -- tentpole: out-of-order response correlation ------------------------------

class _FakeChan:
    supports_pipelining = True

    def __init__(self, sim):
        self.sim = sim
        self.posted = []
        self._q = deque()

    def post(self, message):
        header, body = frame.split(message)
        self.posted.append((header.seq, body))
        return
        yield  # pragma: no cover - generator marker

    def recv(self):
        while not self._q:
            yield self.sim.timeout(1 * us)
        return self._q.popleft()


class _FakeEntry:
    def __init__(self, payload):
        self.payload = payload
        self.result = None
        self.error = None

    def wire(self, seq):
        return frame.pack(seq=seq) + self.payload

    def complete(self, header, body):
        self.result = body

    def fail(self, exc):
        self.error = exc


def test_receiver_correlates_out_of_order_responses():
    sim = Simulator()
    chan = _FakeChan(sim)
    pipe = ChannelPipeline(sim, chan, window=4)
    e1, e2 = _FakeEntry(b"req1"), _FakeEntry(b"req2")

    def run():
        yield from pipe.submit(e1)
        yield from pipe.submit(e2)
        # deliver the responses REVERSED: seq 2 first, then seq 1
        chan._q.append(frame.pack(seq=2) + b"resp2")
        chan._q.append(frame.pack(seq=1) + b"resp1")
        yield sim.timeout(10 * us)

    sim.run(sim.process(run()))
    assert chan.posted == [(1, b"req1"), (2, b"req2")]
    assert e1.result == b"resp1"      # seq-correlated, not FIFO-paired
    assert e2.result == b"resp2"
    assert e1.error is None and e2.error is None
    assert pipe.inflight == {}
    assert pipe.completed == 2
    assert pipe._credits == pipe.window


# -- tentpole: abandonment leaves window neighbors untouched ------------------

def test_abandoned_wait_isolates_its_window_neighbors(gen):
    with obs.installed() as reg:
        tb = Testbed(n_nodes=2)
        fns = gen.SERVICE_FUNCTIONS["MiniKV"]
        plan = plan_with_window(pinned_plan("MiniKV", fns, "direct_writeimm",
                                            PollMode.BUSY, max_msg=16384), 4)
        HatRpcServer(tb.node(0), gen, "MiniKV", KVHandler(tb),
                     plan=plan).start()

        def run():
            stub = yield from connect(tb, gen, plan=plan)
            caller = stub._hatrpc.async_caller()
            yield from stub.Put("k", "v")
            slow = yield from caller.call_async("Slow", "x")
            fast = yield from caller.call_async("Get", "k")
            with pytest.raises(TTransportException) as ei:
                yield from slow.wait(1 * ms)      # Slow takes 10ms
            assert ei.value.type == TTransportException.TIMED_OUT
            assert slow.handle.abandoned
            # the neighbor sharing the window is unaffected
            value = yield from fast.wait()
            assert value == "v"
            # ...and so is the channel: a fresh call still round-trips
            value2 = yield from stub.Get("k")
            assert value2 == "v"
            return stub._hatrpc.engine

        engine = tb.sim.run(tb.sim.process(run()))
        tb.sim.run()                  # drain the late Slow completion
        assert engine.faults.timeouts == 1
        assert engine.faults.channel_failures == 0
        assert_gauges_zero(reg, engine)
        pipe = next(iter(engine._pipelines.values()))
        assert pipe.inflight == {}    # the late response was swept
        assert not pipe.dead
