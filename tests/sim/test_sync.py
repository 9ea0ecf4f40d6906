"""Unit tests for Resource / Store / Gate."""

import pytest

from repro.sim import Gate, SimulationError, Simulator, Store
from tests.sim.resource import Resource


def test_resource_serializes_two_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(tag):
        yield res.acquire()
        log.append((tag, "in", sim.now))
        yield sim.timeout(2)
        res.release()
        log.append((tag, "out", sim.now))

    sim.process(user("a"))
    sim.process(user("b"))
    sim.run()
    assert log == [("a", "in", 0), ("a", "out", 2), ("b", "in", 2), ("b", "out", 4)]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def user(tag):
        yield from res.use(2)
        done.append((tag, sim.now))

    for t in "abc":
        sim.process(user(t))
    sim.run()
    assert done == [("a", 2), ("b", 2), ("c", 4)]


def test_resource_release_without_acquire():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag):
        yield res.acquire()
        order.append(tag)
        yield sim.timeout(1)
        res.release()

    for t in range(6):
        sim.process(user(t))
    sim.run()
    assert order == list(range(6))


def test_store_put_then_get():
    sim = Simulator()
    st = Store(sim)
    st.put("x")

    def getter():
        v = yield st.get()
        return (v, sim.now)

    p = sim.process(getter())
    assert sim.run(p) == ("x", 0)


def test_store_get_blocks_until_put():
    sim = Simulator()
    st = Store(sim)

    def getter():
        v = yield st.get()
        return (v, sim.now)

    def putter():
        yield sim.timeout(5)
        st.put("late")

    p = sim.process(getter())
    sim.process(putter())
    assert sim.run(p) == ("late", 5)


def test_store_fifo_matching():
    sim = Simulator()
    st = Store(sim)
    got = []

    def getter(tag):
        v = yield st.get()
        got.append((tag, v))

    for t in range(3):
        sim.process(getter(t))

    def putter():
        yield sim.timeout(1)
        for v in "abc":
            st.put(v)

    sim.process(putter())
    sim.run()
    assert got == [(0, "a"), (1, "b"), (2, "c")]


def test_store_try_get():
    sim = Simulator()
    st = Store(sim)
    assert st.try_get() is None
    st.put(7)
    assert len(st) == 1
    assert st.try_get() == 7
    assert st.try_get() is None


def test_gate_releases_current_waiters_only():
    sim = Simulator()
    gate = Gate(sim)
    woke = []

    def waiter(tag, delay):
        yield sim.timeout(delay)
        yield gate.wait()
        woke.append((tag, sim.now))

    sim.process(waiter("early", 0))

    def firer():
        yield sim.timeout(2)
        n = gate.fire()
        assert n == 1
        yield sim.timeout(2)
        gate.fire()

    sim.process(waiter("late", 3))
    sim.process(firer())
    sim.run()
    assert woke == [("early", 2), ("late", 4)]


def test_gate_fire_with_no_waiters():
    sim = Simulator()
    gate = Gate(sim)
    assert gate.fire() == 0
    assert gate.n_waiting == 0


def test_gate_wait_with_latency_is_the_wake_then_the_timeout():
    # An event-mode poller's wake-up: one heap entry at the float a wake-up
    # followed by timeout(latency) reaches, at every fire time.
    latency = 1.8e-6
    for fire_at in (0.0, 1e-6, 3.3e-7, 0.7, 1.2345678e-3):
        stamps = []
        for fused in (True, False):
            sim = Simulator()
            gate = Gate(sim)

            def waiter():
                if fused:
                    yield gate.wait(latency)
                else:
                    yield gate.wait()
                    yield sim.timeout(latency)
                stamps.append(sim.now)

            def firer():
                yield sim.timeout(fire_at)
                gate.fire()

            sim.process(waiter())
            sim.process(firer())
            sim.run()
            if fused:
                fused_events = sim.events_executed
            else:
                assert sim.events_executed == fused_events + 1
        assert stamps[0] == stamps[1] == fire_at + latency
