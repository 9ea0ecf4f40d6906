"""Golden trace of the event kernel: bit-identity as a tier-1 property.

One fixed program drives every kernel mechanism at once -- timeouts with
same-time ties, ``Resource.use``, ``Store``, ``Gate``, ``AllOf``/``AnyOf``,
an over-subscribed ``CpuScheduler`` with spinners coming and going mid-job,
interrupts (of a process parked on a ``Resource``, on a timeout and on a
CPU job), and processes that fail with and without a waiter -- under all
three ways of turning the loop (``run(until=time)``, ``run(until=event)``,
``step``/``peek``, ``run()``).

The expected digest and event count were captured when a CPU job with a core
of its own became its own completion event (a declared model change; the
constants before that dated from the commit *before* the host-clock fast
path rewrote ``sim/core.py`` and ``sim/cpu.py``).  They are a sha256 over
``repr`` of raw doubles, so an edit that moves any event by one ulp, swaps
two same-time events or adds/removes a heap entry fails here.  If you mean
to change the model, say so in the PR and refresh both constants together
with ``perfbench/baseline_seed0.json`` and ``BENCH_BASELINE.json``.

``Resource`` is the test-side FIFO semaphore of ``tests/sim/resource.py``.

Run this file as a script (``PYTHONPATH=src:.`` from the repo root) to
print the program's fingerprint as JSON;
``tests/hatkv/test_hashseed_determinism.py`` does, under two hash seeds.
"""

import hashlib
import json

from repro.sim import (CpuScheduler, Gate, Interrupt, SimulationError,
                       Simulator, Store)
from tests.sim.resource import Resource

GOLDEN_SHA256 = (
    "77765eaa1180766244011e7087ed3c88d2e9cfa55f8dc12addce33ab89ca7b30")
GOLDEN_EVENTS = 906
GOLDEN_END = "1002.0"


class Boom(Exception):
    pass


def run_program(poll_every=None):
    """Returns (trace, sim): trace is a list of (repr(now), process, value).

    With ``poll_every``, one more process reads both schedulers'
    ``utilization()`` at that period and logs nothing."""
    sim = Simulator()
    trace = []

    def log(value):
        proc = sim.active_process
        trace.append((repr(sim.now), proc.name if proc else "-", value))

    def spawn(gen, name):
        return sim.process(gen, name=name)

    # -- timeouts, with deliberate same-time ties --------------------------
    def sleeper(i):
        for k in range(4):
            got = yield sim.timeout(0.1 * (i % 3 + 1), value=(i, k))
            log(got)

    for i in range(5):
        spawn(sleeper(i), f"sleeper{i}")

    # -- Resource.use: 5 workers on 2 slots --------------------------------
    res = Resource(sim, capacity=2)

    def worker(i):
        yield sim.timeout(0.01 * i)
        yield from res.use(0.07 + 0.013 * i)
        log(("released", res.in_use, res.queued))

    for i in range(5):
        spawn(worker(i), f"worker{i}")

    # -- interrupt a process parked on the Resource (slot must not leak) ---
    def parked():
        yield sim.timeout(0.03)
        try:
            yield from res.use(1.0)
            log("got the slot")
        except Interrupt as intr:
            log(("interrupted while parked", intr.cause))
            yield sim.timeout(0.25)
            log("after interrupt")

    parked_proc = spawn(parked(), "parked")

    def interrupter():
        yield sim.timeout(0.05)
        parked_proc.interrupt("deadline")
        log("sent interrupt")

    spawn(interrupter(), "interrupter")

    # -- Store: one producer, two consumers, FIFO/FIFO ---------------------
    store = Store(sim)

    def producer():
        for k in range(6):
            yield sim.timeout(0.031)
            store.put(("item", k))
        store.put("a")
        store.put("b")

    def consumer(i):
        for _ in range(4):
            item = yield store.get()
            log(item)
            yield sim.timeout(0.02 * (i + 1))

    spawn(producer(), "producer")
    for i in range(2):
        spawn(consumer(i), f"consumer{i}")

    # -- Gate: waiters registered between fires ----------------------------
    gate = Gate(sim)

    def gate_waiter(i):
        yield sim.timeout(0.045 * i)
        for _ in range(2):
            got = yield gate.wait()
            log(("gate", got))

    def gate_firer():
        for k in range(5):
            yield sim.timeout(0.06)
            log(("fired", gate.fire(k), gate.n_waiting))

    for i in range(3):
        spawn(gate_waiter(i), f"gatew{i}")
    spawn(gate_firer(), "gatef")

    # -- AllOf / AnyOf ------------------------------------------------------
    def quick(delay, value):
        yield sim.timeout(delay)
        return value

    def failing(delay):
        yield sim.timeout(delay)
        raise Boom(f"failed at {sim.now!r}")

    def conditions():
        log((yield sim.all_of([])))
        a = spawn(quick(0.02, "a"), "quick-a")
        b = spawn(quick(0.01, "b"), "quick-b")
        log((yield sim.all_of([a, b, sim.timeout(0.015, "t")])))
        # an already-processed constituent, and an already-processed target
        log((yield sim.any_of([sim.timeout(0.5), a])))
        log((yield b))
        log((yield sim.any_of([sim.timeout(0.02, "slow"),
                               sim.timeout(0.01, "fast"),
                               sim.timeout(0.01, "tie")])))
        try:
            yield sim.all_of([sim.timeout(0.3), spawn(failing(0.01), "bad1")])
        except Boom as exc:
            log(("all_of failed", str(exc)))
        try:
            yield sim.any_of([spawn(failing(0.02), "bad2"), sim.timeout(0.3)])
        except Boom as exc:
            log(("any_of failed", str(exc)))

    spawn(conditions(), "conditions")

    # -- failing processes: with a waiter, defused, yielding garbage --------
    def supervisor():
        try:
            yield spawn(failing(0.033), "bad-watched")
        except Boom as exc:
            log(("child failed", str(exc)))
        spawn(failing(0.011), "bad-defused").defuse()

        def garbage():
            yield sim.timeout(0.001)
            yield "not an event"

        try:
            yield spawn(garbage(), "garbage")
        except SimulationError as exc:
            log(("garbage failed", str(exc)))

    spawn(supervisor(), "supervisor")
    # ... and two nobody waits on: each must surface at the event loop (the
    # first while the test steps the loop by hand, the second inside run()).
    spawn(failing(0.45), "bad-unwatched-step")
    spawn(failing(2.0), "bad-unwatched-run")

    # -- interrupt a sleeper; its timeout still fires, resuming nobody ------
    def dozer():
        try:
            yield sim.timeout(0.4)
            log("slept through")
        except Interrupt as intr:
            log(("woken", intr.cause))
        yield sim.timeout(0.2)
        log("dozer done")

    dozer_proc = spawn(dozer(), "dozer")

    def waker():
        yield sim.timeout(0.123)
        dozer_proc.interrupt(("wake", 1))
        yield dozer_proc
        dozer_proc.interrupt("too late")
        log(("dozer value", dozer_proc.value))

    spawn(waker(), "waker")

    # -- CpuScheduler: 2 cores, jobs > cores, spinners mid-job --------------
    cpu = CpuScheduler(sim, 2)

    def job(i, start, work):
        yield sim.timeout(start)
        log(("job start", i, cpu.runnable, repr(cpu.job_rate)))
        yield cpu.compute(work)
        log(("job done", i, cpu.runnable))

    works = [0.31, 0.07, 0.113, 0.2, 0.0517, 1e-3 / 3, 0.09]
    for i, work in enumerate(works):
        spawn(job(i, 0.017 * i, work), f"job{i}")

    def spinner(i, start, hold):
        yield sim.timeout(start)
        token = cpu.spin_begin()
        log(("spin on", i, cpu.runnable, repr(cpu.job_rate)))
        yield sim.timeout(hold)
        cpu.spin_end(token)
        log(("spin off", i, cpu.runnable))

    spawn(spinner(0, 0.02, 0.11), "spinner0")
    spawn(spinner(1, 0.05, 0.2), "spinner1")
    spawn(spinner(2, 0.05, 0.033), "spinner2")

    def cpu_probe():
        # busy_core_seconds read mid-run, with jobs in flight on both paths
        for _ in range(6):
            yield sim.timeout(0.043)
            log(("busy", repr(cpu.busy_core_seconds),
                 repr(cpu.utilization(sim.now))))

    spawn(cpu_probe(), "cpu-probe")

    def cpu_edge_cases():
        yield cpu.compute(0)
        log("zero work")
        yield cpu.compute(1e-16)          # below _EPS: done at once
        log("sub-eps work")
        yield sim.timeout(0.21)
        # three jobs admitted at one instant, one interrupted mid-job (its
        # work stays on the scheduler and still completes)
        evs = [cpu.compute(w) for w in (0.02, 0.02, 0.05)]
        victim = spawn(job(99, 0.0, 0.04), "victim")
        yield sim.timeout(0.01)
        victim.interrupt("cancel")
        try:
            yield victim
        except Interrupt as intr:
            log(("victim died", intr.cause))
        log((yield sim.all_of(evs)))

    spawn(cpu_edge_cases(), "cpu-edges")

    def late_tiny_job():
        # At now ~ 1e3 a 1e-14 s job is below the clock's resolution
        # (now + delay == now): the scheduler must round it to done.
        yield sim.timeout(1000.0)
        big = cpu.compute(0.5)
        yield cpu.compute(1e-14)
        log("tiny done")
        yield cpu.compute(3e-14)
        log("tiny 2 done")
        yield big
        log(("big done", repr(cpu.busy_core_seconds)))

    spawn(late_tiny_job(), "late-tiny")

    # -- the hand-off: twins with a core each are retired into the GPS pass
    # by a spinner and handed back when it leaves; their equal finish times
    # must keep arrival order through both crossings
    cpu2 = CpuScheduler(sim, 2)

    def twin(i):
        yield sim.timeout(0.6)
        yield cpu2.compute(0.004)
        log(("twin done", i, repr(cpu2.busy_core_seconds)))

    def intruder():
        yield sim.timeout(0.601)
        token = cpu2.spin_begin()
        log(("spin on", "intruder", cpu2.runnable, repr(cpu2.job_rate)))
        yield sim.timeout(0.001)
        cpu2.spin_end(token)

    for i in range(2):
        spawn(twin(i), f"twin{i}")
    spawn(intruder(), "intruder")

    # -- RPC-shaped churn: microsecond jobs on 3 cores shared by 8 callers,
    # a one-slot "NIC", busy-poll spins; the node crosses R = C both ways
    # many times, and most changes while over-subscribed land while another
    # wake-up is pending, so superseded wake-ups pile up.
    cpu3 = CpuScheduler(sim, 3)
    nic = Resource(sim)

    def caller(i):
        yield sim.timeout(0.33 + 1e-7 * i)
        for k in range(12):
            yield cpu3.compute(1e-6 * (3 + (i * 7 + k * 5) % 11) / 7)
            yield from nic.use(4e-7 + 1e-7 * ((i + k) % 4))
            if (i + k) % 3 == 0:
                token = cpu3.spin_begin()
                yield sim.timeout(2.3e-6)
                cpu3.spin_end(token)
            else:
                yield sim.timeout(1.7e-6 * (1 + k % 3) / 3)
            log(("call", k, cpu3.runnable))
        return repr(cpu3.busy_core_seconds)

    callers = [spawn(caller(i), f"caller{i}") for i in range(8)]

    def collector():
        log((yield sim.all_of(callers)))

    spawn(collector(), "collector")

    if poll_every is not None:
        def poller():
            for _ in range(40):
                yield sim.timeout(poll_every)
                cpu.utilization(sim.now)
                cpu3.utilization(sim.now)

        spawn(poller(), "poller")

    # -- turn the loop every way the kernel offers --------------------------
    def note(value):
        trace.append((repr(sim.now), "main", value))

    sim.run(until=0.1)
    note(("until-time", sim.events_executed, repr(sim.peek())))
    note(("until-event", sim.run(until=dozer_proc), sim.events_executed))
    while sim.peek() <= 0.5:
        try:
            sim.step()
        except Boom as exc:
            note(("surfaced in step", str(exc), sim.events_executed))
    note(("stepped", sim.events_executed, repr(sim.peek())))
    while True:
        try:
            sim.run()
            break
        except Boom as exc:
            note(("surfaced in run", str(exc), sim.events_executed))
    note(("drained", res.in_use, res.queued, len(store), gate.n_waiting,
          cpu.runnable, repr(sim.peek())))
    sim.run(until=sim.now + 1.5)
    note(("idle advance", sim.events_executed))
    return trace, sim


def digest(trace):
    h = hashlib.sha256()
    for when, name, value in trace:
        h.update(f"{when}|{name}|{value!r}\n".encode())
    return h.hexdigest()


def test_program_exercises_what_it_claims():
    trace, _sim = run_program()
    values = [v for _t, _n, v in trace]
    tags = {v[0] if isinstance(v, tuple) else v for v in values
            if isinstance(v, (tuple, str))}
    for expected in ("interrupted while parked", "after interrupt", "woken",
                     "child failed", "garbage failed", "all_of failed",
                     "any_of failed", "surfaced in step", "surfaced in run",
                     "victim died", "tiny done",
                     "tiny 2 done", "big done", "zero work", "sub-eps work",
                     "spin on", "spin off", "gate", "item", "call",
                     "twin done"):
        assert expected in tags, expected
    assert "got the slot" not in tags
    assert "slept through" not in tags
    # the interrupted waiter's slot did not leak
    drained = next(v for v in values
                   if isinstance(v, tuple) and v[0] == "drained")
    assert drained[1:6] == (0, 0, 0, 0, 0)
    # over-subscription happened: some job saw a rate below one core
    rates = [float(v[3]) for v in values
             if isinstance(v, tuple) and v[0] in ("job start", "spin on")]
    assert min(rates) < 1.0
    # the twins went through the pass and back, and came out in order
    twins = [row for row in trace
             if isinstance(row[2], tuple) and row[2][0] == "twin done"]
    assert [v[1] for _t, _n, v in twins] == [0, 1]
    assert twins[0][0] == twins[1][0]
    assert float(twins[0][0]) > 0.604       # the spinner slowed them down


def test_trace_is_repeatable_in_process():
    a, sim_a = run_program()
    b, sim_b = run_program()
    assert a == b
    assert sim_a.events_executed == sim_b.events_executed


def test_golden_trace_is_bit_identical():
    trace, sim = run_program()
    assert (digest(trace), sim.events_executed, repr(sim.now)) == (
        GOLDEN_SHA256, GOLDEN_EVENTS, GOLDEN_END)


def test_reading_the_cpu_moves_nothing():
    """``utilization()`` / ``busy_core_seconds`` are reads: polling them
    every 0.05 s leaves every process's trace bit-identical.  (The loop's
    own "main" rows count events and peek at the heap, where the poller's
    timeouts are, so they are left out on both sides.)"""
    def processes(trace):
        return digest([row for row in trace if row[1] != "main"])

    plain, _sim = run_program()
    polled, _sim = run_program(poll_every=0.05)
    assert processes(polled) == processes(plain)


if __name__ == "__main__":
    _trace, _sim = run_program()
    print(json.dumps({"sha256": digest(_trace),
                      "events": _sim.events_executed,
                      "end": repr(_sim.now)}))
