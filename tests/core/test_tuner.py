"""Online hint tuner: hysteresis, epoch guard, plan alternates, e2e."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import frame
from repro.core import tuner as tuner_mod
from repro.core.runtime import HatRpcServer, hatrpc_connect, service_plan_of
from repro.core.tuner import HintTuner, TunerConfig
from repro.idl import load_idl
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException
from repro.verbs.cq import PollMode

TUNABLE_IDL = """
service Tunable {
    hint: tunable = true;
    binary Echo(1: binary blob) [
        hint: perf_goal = throughput, concurrency = 64;
    ]
}
"""

SMALL = 512
LARGE = 131072


@pytest.fixture(scope="module")
def gen():
    return load_idl(TUNABLE_IDL, "tunable_gen")


@pytest.fixture(scope="module")
def plan(gen):
    return service_plan_of(gen, "Tunable")


class FakeEngine:
    """Just enough engine for driving the tuner's decision loop directly."""

    def __init__(self, plan, now=0.0):
        self.plan = plan
        self.node = SimpleNamespace(sim=SimpleNamespace(now=now))
        self.trace = []

    def retarget(self, fn, idx, choice):
        routes = dict(self.plan.routes)
        routes[fn] = replace(routes[fn], channel=idx, choice=choice)
        self.plan = replace(self.plan, routes=routes)

    def _trace(self, kind, fn, channel, detail=""):
        self.trace.append((kind, fn, channel, detail))


def feed(tuner, eng, fn, nbytes, n, latency=1e-5):
    """n completed calls on fn's current channel."""
    for _ in range(n):
        tuner.observe(fn, nbytes, latency, eng.node.sim.now,
                      eng.plan.routes[fn].channel)


# -- the epoch on the wire (the format itself: tests/test_frame.py) ----------

def test_epoch_frame_roundtrip():
    tagged = frame.pack(epoch=7) + b"payload"
    assert len(frame.pack(epoch=7)) == 8
    header, rest = frame.split(tagged)
    assert header.epoch == 7 and rest == b"payload"


def test_untagged_bytes_pass_through():
    for raw in (b"", b"x", b"plain thrift message"):
        assert frame.split(raw) == (frame.NONE, raw)


def test_rejection_frame_not_mistaken_for_epoch():
    header, rest = frame.split(frame.pack(retry_after=0.002))
    assert header.epoch is None and header.retry_after == 0.002
    assert rest == b""


# -- tunable plans -----------------------------------------------------------

def test_tunable_hint_provisions_alternates(plan):
    alts = [ch for ch in plan.channels if ch.alternate]
    assert alts, "tunable=true hint must append alternate channels"
    for ch in alts:
        assert ch.functions == ()
    # Every selector choice reachable over the tuning grid has a channel.
    protos = {(ch.protocol, ch.server_poll) for ch in plan.channels}
    assert ("direct_writeimm", PollMode.BUSY) in protos
    assert ("rfp", PollMode.EVENT) in protos


def test_alternates_deterministic_between_peers(gen):
    a = service_plan_of(gen, "Tunable")
    b = service_plan_of(gen, "Tunable")
    assert a == b


def test_untunable_plan_is_declared_prefix(gen):
    idl = TUNABLE_IDL.replace("hint: tunable = true;", "")
    plain_gen = load_idl(idl, "untunable_gen")
    plain = service_plan_of(plain_gen, "Tunable")
    tuned = service_plan_of(plain_gen, "Tunable", tunable=True)
    assert not any(ch.alternate for ch in plain.channels)
    # Declared channels keep their indices; alternates only append, so a
    # tunable plan routes identically until the tuner acts.
    assert tuned.channels[:len(plain.channels)] == plain.channels
    assert tuned.routes == plain.routes


# -- hysteresis --------------------------------------------------------------

def cfg(**kw):
    base = dict(window=32, epoch_samples=32, min_samples=8,
                confirm_epochs=2, min_dwell=0.0)
    base.update(kw)
    return TunerConfig(**base)


def test_no_switch_below_confidence(plan):
    tuner = HintTuner(cfg(min_samples=64, epoch_samples=8))
    eng = FakeEngine(plan)
    tuner.bind(eng)
    feed(tuner, eng, "Echo", LARGE, 40)     # 5 epochs, all under-confident
    assert tuner.switches == 0 and tuner.epoch == 0
    assert tuner.holds > 0


def test_steady_workload_never_switches(plan):
    tuner = HintTuner(cfg())
    eng = FakeEngine(plan)
    tuner.bind(eng)
    before = eng.plan.routes["Echo"]
    feed(tuner, eng, "Echo", SMALL, 32 * 20)
    assert tuner.switches == 0 and tuner.epoch == 0
    assert eng.plan.routes["Echo"] == before


def test_phase_shift_switches_all_bound_engines(plan):
    tuner = HintTuner(cfg())
    eng1, eng2 = FakeEngine(plan), FakeEngine(plan)
    tuner.bind(eng1)
    tuner.bind(eng2)
    feed(tuner, eng1, "Echo", SMALL, 32 * 2)
    assert tuner.switches == 0
    # Payload regime shifts: needs confirm_epochs consecutive agreements.
    feed(tuner, eng1, "Echo", LARGE, 32)
    assert tuner.switches == 0, "one epoch must not be enough"
    feed(tuner, eng1, "Echo", LARGE, 32)
    assert tuner.switches == 1 and tuner.epoch == 1
    for eng in (eng1, eng2):
        route = eng.plan.routes["Echo"]
        assert route.choice.protocol == "rfp"
        assert eng.plan.channels[route.channel].alternate
    assert [d.kind for d in tuner.decisions] == ["switch"]
    assert ("tuner_switch", "Echo", eng1.plan.routes["Echo"].channel,
            tuner.decisions[0].from_choice + "->" +
            tuner.decisions[0].to_choice + " epoch=1") in \
        [(k, f, c, d) for (k, f, c, d) in eng1.trace]


def test_flapping_workload_is_bounded_by_confirmation(plan):
    tuner = HintTuner(cfg(confirm_epochs=2))
    eng = FakeEngine(plan)
    tuner.bind(eng)
    # The regime flips every epoch: no target ever wins two in a row.
    for _ in range(20):
        feed(tuner, eng, "Echo", SMALL, 32)
        feed(tuner, eng, "Echo", LARGE, 32)
    assert tuner.switches == 0 and tuner.epoch == 0


def test_flapping_bounded_by_improvement_gate(plan):
    # Even with confirmation disabled, identical measured latencies on
    # both choices mean no candidate ever clears the improvement
    # threshold: only the first (unmeasured, prior-driven) switch and at
    # most one back-switch can happen.
    tuner = HintTuner(cfg(confirm_epochs=1))
    eng = FakeEngine(plan)
    tuner.bind(eng)
    for _ in range(20):
        feed(tuner, eng, "Echo", SMALL, 32)
        feed(tuner, eng, "Echo", LARGE, 32)
    assert tuner.switches <= 2
    assert tuner.holds > 0


def test_min_dwell_blocks_rapid_reswitching(plan):
    tuner = HintTuner(cfg(confirm_epochs=1, min_dwell=1.0))
    eng = FakeEngine(plan, now=0.0)
    tuner.bind(eng)
    feed(tuner, eng, "Echo", LARGE, 32)
    assert tuner.switches == 1                 # first switch: dwell clock
    feed(tuner, eng, "Echo", SMALL, 32 * 10)   # wants to switch back...
    assert tuner.switches == 1, "dwell must pin the plan"
    eng.node.sim.now = 2.0                     # ...until the dwell passes
    feed(tuner, eng, "Echo", SMALL, 32)
    assert tuner.switches == 2


def test_switch_rate_cap(plan, monkeypatch):
    monkeypatch.setattr(tuner_mod, "MAX_SWITCH_RATE", 2)
    monkeypatch.setattr(tuner_mod, "RATE_WINDOW", 100.0)
    monkeypatch.setattr(tuner_mod, "IMPROVEMENT_THRESHOLD", -10.0)
    tuner = HintTuner(cfg(confirm_epochs=1))
    # IMPROVEMENT_THRESHOLD < 0 approves every measured candidate, so only
    # the rate cap stands between the tuner and a flap per epoch.
    eng = FakeEngine(plan)
    tuner.bind(eng)
    for _ in range(10):
        feed(tuner, eng, "Echo", SMALL, 32)
        feed(tuner, eng, "Echo", LARGE, 32)
    assert tuner.switches == 2


def test_stale_epoch_samples_dropped(plan):
    tuner = HintTuner(cfg())
    eng = FakeEngine(plan)
    tuner.bind(eng)
    for _ in range(40):
        tuner.observe("Echo", LARGE, 1e-5, 0.0,
                      eng.plan.routes["Echo"].channel, epoch_ok=False)
    assert tuner.stale_samples == 40
    assert tuner.switches == 0 and tuner.epochs("Echo") == 0


def test_urgent_oversize_retargets_immediately():
    idl = """
    service Sized {
        hint: tunable = true;
        binary Echo(1: binary blob) [
            hint: perf_goal = throughput, concurrency = 64,
                  payload_size = 512;
        ]
    }
    """
    sized_gen = load_idl(idl, "sized_gen")
    sized_plan = service_plan_of(sized_gen, "Sized")
    tuner = HintTuner(cfg())
    eng = FakeEngine(sized_plan)
    tuner.bind(eng)
    declared = eng.plan.routes["Echo"].channel
    assert eng.plan.channels[declared].max_msg < LARGE
    tuner.observe_error("Echo", LARGE, declared)
    assert tuner.urgent_switches == 1 and tuner.epoch == 1
    new_ch = eng.plan.channels[eng.plan.routes["Echo"].channel]
    assert new_ch.max_msg >= LARGE


# -- end to end over the real stack ------------------------------------------

def test_e2e_phase_shift_converges_and_guards_epochs(gen):
    tb = Testbed(n_nodes=2)

    class H:
        def Echo(self, blob):
            return blob

    server = HatRpcServer(tb.node(1), gen, "Tunable", H()).start()
    tuner = HintTuner(TunerConfig(epoch_samples=16, min_samples=8,
                                  confirm_epochs=2, min_dwell=0.0))
    ok = []

    def client(i):
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), gen,
                                         "Tunable", tuner=tuner)
        small, large = b"x" * SMALL, b"y" * LARGE
        for _ in range(20):
            r = yield from stub.Echo(small)
            assert len(r) == SMALL
        for _ in range(8):
            r = yield from stub.Echo(large)
            assert len(r) == LARGE
        ok.append(i)

    for i in range(8):
        tb.sim.process(client(i))
    tb.sim.run()
    assert len(ok) == 8, "every call must stay correct across the switch"
    assert tuner.switches >= 1
    assert tuner._engines[0].plan.routes["Echo"].choice.protocol == "rfp"
    # The server echoed (and therefore saw) the post-switch plan epoch.
    assert server.tuner_epoch_seen >= 1
    # In-flight calls across the switch were marked stale, not mis-counted.
    assert tuner.stale_samples >= 0


def test_e2e_without_tuner_has_no_epoch_state(gen):
    tb = Testbed(n_nodes=2)

    class H:
        def Echo(self, blob):
            return blob

    server = HatRpcServer(tb.node(1), gen, "Tunable", H()).start()
    got = {}

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), gen,
                                         "Tunable")
        got["r"] = yield from stub.Echo(b"q" * 64)

    tb.sim.run(tb.sim.process(client()))
    assert got["r"] == b"q" * 64
    assert server.tuner_epoch_seen == -1, \
        "untuned clients must not put epoch frames on the wire"


@pytest.mark.parametrize("driver", ["blocking", "async"])
def test_oversize_signal_reaches_tuner_on_either_driver(driver):
    # Regression: an oversize call_async on a solo-mode channel (rfp,
    # window 1) died in the pipeline sweep, which never told the tuner --
    # only the blocking path did.  One retry decision, one signal.
    sized_gen = load_idl("""
    service Sized64 {
        hint: tunable = true;
        binary Echo(1: binary blob) [
            hint: perf_goal = throughput, concurrency = 64,
                  payload_size = 64KB;
        ]
    }
    """, "sized64_gen")
    tb = Testbed(n_nodes=2)

    class H:
        def Echo(self, blob):
            return blob

    HatRpcServer(tb.node(1), sized_gen, "Sized64", H()).start()
    signals = []

    class CountingTuner(HintTuner):
        def observe_error(self, fn, nbytes, channel):
            signals.append((fn, nbytes, channel))
            super().observe_error(fn, nbytes, channel)

    tuner = CountingTuner(TunerConfig())

    def client():
        stub = yield from hatrpc_connect(tb.node(0), tb.node(1), sized_gen,
                                         "Sized64", tuner=tuner)
        engine = stub._hatrpc.engine
        declared = engine.plan.channel_for("Echo")
        assert declared.protocol == "rfp" and declared.window == 1
        blob = b"z" * (declared.max_msg + 1000)
        with pytest.raises(TTransportException):
            if driver == "blocking":
                yield from stub.Echo(blob)
            else:
                caller = stub._hatrpc.async_caller()
                handle = yield from caller.call_async("Echo", blob)
                yield from handle.wait()
        return declared.index

    declared = tb.sim.run(tb.sim.process(client()))
    assert [(fn, ch) for fn, _n, ch in signals] == [("Echo", declared)]
    assert tuner.urgent_switches == 1
