"""Overload behavior end to end: typed rejection, honored retry_after,
the shared retry budget's anti-amplification bound, and the OverloadStorm
fault event."""

import random

import pytest

from repro.core.engine import pinned_plan
from repro.core.overload import AdmissionConfig
from repro.core.resilience import RetryBudget, RetryPolicy
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.faults import FaultInjector, FaultPlan, OverloadStorm
from repro.idl import load_idl
from repro.obs import trace as obstrace
from repro.sim.units import KiB, ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TRejectedException, TTransportException
from repro.verbs.cq import PollMode

IDL = """
service OverKV {
    hint: concurrency = 4;

    string Get(1: string k) [ hint: perf_goal = latency; ]
    string Slow(1: string k) [ hint: perf_goal = latency; ]
}
"""


class Handler:
    def __init__(self, tb, slow=2 * ms):
        self.tb = tb
        self.slow = slow
        self.store = {"k": "v"}

    def Get(self, k):
        return self.store.get(k, "")

    def Slow(self, k):
        yield self.tb.sim.timeout(self.slow)
        return k


@pytest.fixture(scope="module")
def gen():
    return load_idl(IDL, "overload_gen")


def start(tb, gen, admission, slow=2 * ms, **kw):
    handler = Handler(tb, slow=slow)
    server = HatRpcServer(tb.node(0), gen, "OverKV", handler,
                          admission=admission, **kw).start()
    return server, handler


def connect(tb, gen, **kw):
    kw.setdefault("rng", random.Random(7))
    return hatrpc_connect(tb.node(1), tb.node(0), gen, "OverKV", **kw)


# -- typed rejection + honored retry_after -----------------------------------

def test_rejection_is_typed_and_retry_honors_retry_after(gen):
    tb = Testbed(n_nodes=2)
    cfg = AdmissionConfig(capacity=1, retry_after_base=500 * us)
    start(tb, gen, cfg)

    def occupier():
        stub = yield from connect(tb, gen)
        yield from stub.Slow("x")           # holds the gate for 2ms

    def contender():
        yield tb.sim.timeout(100 * us)      # let Slow get in first
        stub = yield from connect(
            tb, gen, retry_policy=RetryPolicy(max_attempts=6,
                                              base_backoff=50 * us,
                                              jitter=0.0))
        value = yield from stub.Get("k")    # rejected, retried, then lands
        return value, stub._hatrpc.engine, tb.sim.now

    tb.sim.process(occupier())
    value, engine, t_done = tb.sim.run(tb.sim.process(contender()))
    assert value == "v"
    assert engine.faults.rejections >= 1
    assert engine.faults.rejected_retries >= 1
    assert engine.faults.timeouts == 0      # overload != timeout
    trace = engine.fault_trace
    assert any(kind == "rejected" for _, kind, *_ in trace)
    # The advised retry_after (base * (1 + occupancy) = 1ms here) was
    # honored: at least that long passed between the first rejection and
    # the call finally completing.
    t_rej = next(t for t, kind, *_ in trace if kind == "rejected")
    assert t_done - t_rej >= 2 * cfg.retry_after_base
    # Rejection is not a channel failure: no breaker ever opened.
    assert engine.faults.breaker_opens == 0
    assert engine.faults.reconnects == 0


def test_exhausted_attempts_surface_trejected_not_timed_out(gen):
    tb = Testbed(n_nodes=2)
    start(tb, gen, AdmissionConfig(capacity=1, retry_after_base=100 * us),
          slow=50 * ms)                     # occupied far past the retries

    def occupier():
        stub = yield from connect(tb, gen)
        yield from stub.Slow("x")

    def contender():
        yield tb.sim.timeout(100 * us)
        stub = yield from connect(
            tb, gen, retry_policy=RetryPolicy(max_attempts=2,
                                              base_backoff=50 * us,
                                              jitter=0.0))
        with pytest.raises(TRejectedException) as ei:
            yield from stub.Get("k")
        assert ei.value.type == TTransportException.REJECTED
        assert ei.value.retry_after > 0
        return stub._hatrpc.engine

    tb.sim.process(occupier())
    engine = tb.sim.run(tb.sim.process(contender()))
    assert engine.faults.rejections == 2    # both attempts refused
    assert engine.faults.timeouts == 0


# -- a shed request is answered: counted, and traced as rejected -------------

@pytest.mark.parametrize("protocol, srq", [
    ("eager_sendrecv", False), ("eager_sendrecv", True), ("tcp", False),
], ids=["rdma", "srq", "tcp"])
def test_shed_requests_are_counted_and_their_spans_say_rejected(gen, protocol,
                                                                srq):
    """N sent, K shed => ``requests == N`` and ``gate.rejected == K`` on
    every transport (the refusal is a reply like any other), and each shed
    request's server span ends ``rejected``, not ``ok``."""
    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)
        plan = pinned_plan("OverKV", gen.SERVICE_FUNCTIONS["OverKV"],
                           protocol, PollMode.BUSY, max_msg=8 * KiB)
        server, _ = start(tb, gen, AdmissionConfig(capacity=1), plan=plan,
                          srq=srq)

        def occupier():
            stub = yield from connect(tb, gen, plan=plan)
            yield from stub.Slow("x")           # holds the gate for 2ms

        def contender():
            yield tb.sim.timeout(100 * us)      # let Slow get in first
            stub = yield from connect(
                tb, gen, plan=plan, retry_policy=RetryPolicy(max_attempts=1))
            for _ in range(5):                  # K = 5, all while Slow holds
                with pytest.raises(TRejectedException):
                    yield from stub.Get("k")
            yield tb.sim.timeout(3 * ms)        # Slow is done
            for _ in range(3):
                assert (yield from stub.Get("k")) == "v"

        tb.sim.process(occupier())
        tb.sim.run(tb.sim.process(contender()))
        tb.sim.run()
        assert server.requests == 1 + 5 + 3     # N: Slow, 5 shed, 3 served
        assert server.gate.rejected == 5
        statuses = [s.status for s in col.spans if s.kind == "server"]
        assert sorted(statuses) == ["ok"] * 4 + ["rejected"] * 5


def test_tcp_admission_slot_is_free_while_the_reply_is_sent(gen):
    """The gate counts requests being dispatched, on TCP as on RDMA: a
    request is shed while the one slot's holder runs, and admitted while
    that holder's 1 MiB reply is still draining onto the wire."""
    with obstrace.installed() as col:
        tb = Testbed(n_nodes=2)
        plan = pinned_plan("OverKV", gen.SERVICE_FUNCTIONS["OverKV"],
                           "tcp", PollMode.BUSY, max_msg=8 * KiB)
        start(tb, gen, AdmissionConfig(capacity=1), slow=300 * us, plan=plan)

        def occupier():
            stub = yield from connect(tb, gen, plan=plan)
            yield from stub.Slow("x" * 1024 * KiB)

        def contender():
            stub = yield from connect(
                tb, gen, plan=plan, retry_policy=RetryPolicy(max_attempts=1))
            while tb.sim.now < 2 * ms:
                try:
                    yield from stub.Get("k")
                except TRejectedException:
                    pass

        tb.sim.process(occupier())
        tb.sim.run(tb.sim.process(contender()))
        tb.sim.run()
        (dispatch,) = [s for s in col.spans if s.name == "dispatch"
                       and s.duration > 250 * us]
        (reply,) = [s for s in col.spans if s.name == "reply"
                    and s.duration > 250 * us]

        def admitted_during(stage):
            return [s.attrs["admitted"] for s in col.spans
                    if s.name == "admission"
                    and stage.start < s.start < stage.end]

        assert admitted_during(dispatch)
        assert not any(admitted_during(dispatch))
        assert admitted_during(reply) and all(admitted_during(reply))


# -- the shared retry budget -------------------------------------------------

def test_shared_budget_bounds_aggregate_rejection_retries(gen):
    """8 clients hammer a full gate through one 4-token budget with a
    negligible refill: at most 4 rejection retries happen in total, the
    rest fail fast with the typed error -- the storm cannot amplify
    itself."""
    tb = Testbed(n_nodes=2)
    start(tb, gen, AdmissionConfig(capacity=1, retry_after_base=100 * us),
          slow=50 * ms)
    # ~1e-6 tokens/s: zero on this test's millisecond timescale.
    budget = RetryBudget(tb.sim, cap=4, refill_rate=1e-6)
    engines = []
    outcomes = []

    def occupier():
        stub = yield from connect(tb, gen)
        yield from stub.Slow("x")

    def client(i):
        yield tb.sim.timeout(100 * us + i * 5 * us)
        stub = yield from connect(
            tb, gen, retry_budget=budget,
            rng=random.Random(i),
            retry_policy=RetryPolicy(max_attempts=8, base_backoff=50 * us,
                                     jitter=0.0))
        engines.append(stub._hatrpc.engine)
        try:
            yield from stub.Get("k")
            outcomes.append("ok")
        except TRejectedException:
            outcomes.append("rejected")
        except TTransportException as exc:
            outcomes.append(f"transport:{exc.type}")

    tb.sim.process(occupier())
    procs = [tb.sim.process(client(i)) for i in range(8)]
    for p in procs:
        tb.sim.run(p)

    assert outcomes.count("rejected") == 8  # typed failure, nothing else
    total_retries = sum(e.faults.rejected_retries for e in engines)
    assert total_retries == 4               # exactly the budget, no refill
    assert sum(e.faults.budget_exhausted for e in engines) >= 8 - 4
    assert budget.spent == 4
    assert budget.denied >= 4
    # Every wire attempt = 1 first try + 1 per spent token.
    assert sum(e.faults.rejections for e in engines) == 8 + 4


def test_budget_refill_restores_retries_over_time(gen):
    tb = Testbed(n_nodes=2)
    budget = RetryBudget(tb.sim, cap=1, refill_rate=2000.0)  # 2 tokens/ms
    start(tb, gen, AdmissionConfig(capacity=1, retry_after_base=400 * us),
          slow=3 * ms)

    def occupier():
        stub = yield from connect(tb, gen)
        yield from stub.Slow("x")

    def contender():
        yield tb.sim.timeout(100 * us)
        stub = yield from connect(
            tb, gen, retry_budget=budget,
            retry_policy=RetryPolicy(max_attempts=10, base_backoff=50 * us,
                                     jitter=0.0))
        value = yield from stub.Get("k")
        return value, stub._hatrpc.engine

    tb.sim.process(occupier())
    value, engine = tb.sim.run(tb.sim.process(contender()))
    # Each ~800us retry wait refills a full token at 2/ms; the call
    # grinds through the occupied window and succeeds once Slow drains.
    assert value == "v"
    assert engine.faults.rejected_retries >= 2
    assert budget.spent == engine.faults.rejected_retries


# -- the OverloadStorm fault event -------------------------------------------

def test_overload_storm_drives_registered_hooks_on_schedule():
    tb = Testbed(n_nodes=2)
    ev = OverloadStorm("node1", start=200 * us, duration=500 * us, clients=4)
    inj = FaultInjector(tb, FaultPlan(events=(ev,))).arm()
    seen = []

    def hook(event, handle):
        seen.append((tb.sim.now, event.clients, handle))

    inj.on_storm(hook)

    def probe():
        yield tb.sim.timeout(400 * us)      # mid-window
        mid_active = seen[0][2].active if seen else None
        yield tb.sim.timeout(400 * us)      # past ev.end = 700us
        return mid_active, seen[0][2].active

    mid_active, end_active = tb.sim.run(tb.sim.process(probe()))
    assert [t for t, *_ in seen] == [pytest.approx(200 * us)]
    assert seen[0][1] == 4                  # the event reaches the driver
    assert mid_active is True               # generators keep going...
    assert end_active is False              # ...until exactly the window end
    assert (pytest.approx(200 * us), "storm_start", "node1") in \
        [(pytest.approx(t), k, n) for t, k, n in inj.log]
    assert any(k == "storm_end" and t == pytest.approx(700 * us)
               for t, k, n in inj.log)


def test_storm_event_validates_in_fault_plan():
    plan = FaultPlan(events=(OverloadStorm("node0", start=0.0,
                                           duration=1 * ms),))
    assert plan.events[0].end == pytest.approx(1 * ms)
    with pytest.raises(TypeError):
        FaultPlan(events=("not-an-event",))
