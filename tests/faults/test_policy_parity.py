"""One recovery policy, two wire drivers: every failure scenario must end
the same way -- result or exception type, fault counters, fault-trace kind
sequence and final sim time (exactly at window 1; to within the correlation
header's wire time on a pipelined channel) -- whether the call is driven through the
blocking stub (``engine.call``) or through ``AsyncCaller.call_async(...)
.wait()`` (``engine.call_async``), on window-1 and on pipelined channels."""

import random

import pytest

from repro.core.overload import AdmissionConfig
from repro.core.resilience import RetryBudget, RetryPolicy
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.faults import FaultInjector, FaultPlan, LinkFlap, QPError
from repro.idl import load_idl
from repro.sim.units import ms, us
from repro.testbed import Testbed

IDL = """
service ParityKV {
    hint: concurrency = 4;

    string Get(1: string k) [ hint: perf_goal = latency; ]
    void Put(1: string k, 2: string v) [ hint: perf_goal = latency; ]
    string Slow(1: string k) [ hint: perf_goal = latency; ]
}
"""


@pytest.fixture(scope="module")
def gen():
    return load_idl(IDL, "policy_parity_gen")


class Handler:
    def __init__(self, tb, slow):
        self.tb = tb
        self.slow = slow
        self.store = {}

    def Get(self, k):
        return self.store.get(k, "")

    def Put(self, k, v):
        self.store[k] = v

    def Slow(self, k):
        yield self.tb.sim.timeout(self.slow)
        return k


GATE = AdmissionConfig(capacity=1, retry_after_base=200 * us)

#: scenario -> the call under test, what surrounds it, and how the engine
#: is configured.  ``occupy``: another client holds the one admission slot
#: with a Slow of that length; ``faults``: injected once the channel is up.
CELLS = {
    "rejected_then_admitted": dict(
        call=("Get", "k"), occupy=1 * ms, admission=GATE,
        policy=RetryPolicy(max_attempts=8, base_backoff=50 * us)),
    "rejected_until_attempts_run_out": dict(
        call=("Get", "k"), occupy=20 * ms, admission=GATE,
        policy=RetryPolicy(max_attempts=2, base_backoff=50 * us)),
    "rejected_with_empty_budget": dict(
        call=("Get", "k"), occupy=20 * ms, admission=GATE, empty_budget=True,
        policy=RetryPolicy(max_attempts=8, base_backoff=50 * us)),
    "qp_error_before_idempotent_get": dict(
        call=("Get", "k"), idempotent=("Get",),
        faults=(QPError("node1", at=100 * us),)),
    "qp_error_before_put": dict(
        call=("Put", "k", "v2"), idempotent=("Get",),
        faults=(QPError("node1", at=100 * us),)),
    "flap_under_idempotent_slow": dict(
        call=("Slow", "x"), idempotent=("Slow",),
        faults=(LinkFlap("node0", start=500 * us, duration=3 * ms),)),
    "flap_under_slow": dict(
        call=("Slow", "x"),
        faults=(LinkFlap("node0", start=500 * us, duration=3 * ms),)),
}


def drive(gen, cell, pipeline, through_async):
    tb = Testbed(n_nodes=3)
    HatRpcServer(tb.node(0), gen, "ParityKV",
                 Handler(tb, slow=cell.get("occupy", 1 * ms)),
                 admission=cell.get("admission"), pipeline=pipeline).start()
    if "faults" in cell:
        FaultInjector(tb, FaultPlan(seed=3, events=cell["faults"])).arm()
    budget = None
    if cell.get("empty_budget"):
        budget = RetryBudget(tb.sim, cap=1, refill_rate=1e-6)
        assert budget.try_spend()

    def occupier():
        yield tb.sim.timeout(100 * us)         # after the client's warm-up
        stub = yield from hatrpc_connect(tb.node(2), tb.node(0), gen,
                                         "ParityKV", pipeline=pipeline)
        yield from stub.Slow("hold")

    def client():
        stub = yield from hatrpc_connect(
            tb.node(1), tb.node(0), gen, "ParityKV", pipeline=pipeline,
            rng=random.Random(11), retry_policy=cell.get("policy"),
            idempotent=cell.get("idempotent", ()), retry_budget=budget)
        engine = stub._hatrpc.engine
        yield from stub.Put("k", "v1")         # the channel is up
        yield tb.sim.timeout(300 * us)
        method, *args = cell["call"]
        try:
            if through_async:
                caller = stub._hatrpc.async_caller()
                handle = yield from caller.call_async(method, *args)
                outcome = yield from handle.wait()
            else:
                outcome = yield from getattr(stub, method)(*args)
        except Exception as exc:
            outcome = type(exc)
        return outcome, engine

    if "occupy" in cell:
        tb.sim.process(occupier())
    outcome, engine = tb.sim.run(tb.sim.process(client()))
    tb.sim.run()
    verdict = (outcome, engine.faults.as_dict(),
               [kind for _t, kind, *_ in engine.fault_trace])
    return verdict, tb.sim.now


@pytest.mark.parametrize("pipeline", [False, True],
                         ids=["window1", "pipelined"])
@pytest.mark.parametrize("name", list(CELLS))
def test_blocking_and_async_drivers_decide_alike(gen, name, pipeline):
    blocking, t_blocking = drive(gen, CELLS[name], pipeline,
                                 through_async=False)
    pipelined, t_pipelined = drive(gen, CELLS[name], pipeline,
                                   through_async=True)
    assert blocking == pipelined
    _outcome, counters, _kinds = blocking
    assert any(counters.values()), "the scenario exercised no fault path"
    # On a pipelined channel the async driver's 8-byte correlation header
    # rides the wire each way: nanoseconds per attempt, where one backoff
    # drawn differently would move the clock by tens of microseconds.
    assert abs(t_blocking - t_pipelined) <= (0.1 * us if pipeline else 0.0)
