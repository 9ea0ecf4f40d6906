"""A port side is a :class:`~repro.sim.sync.Lane`: its next-free time.

Property: for any arrival times and hold durations -- same-time arrivals
and arrivals at the very instant a holder leaves included -- every holder
finishes at the bit-identical float a capacity-1 FIFO
:class:`tests.sim.resource.Resource` gives it, and each ``hold`` pushes
exactly one heap entry.  A hold booked ahead, ``hold(d, after=L)`` at
departure (the RX side of a port, booked as the packet leaves), finishes
where ``timeout(L)`` followed by ``hold(d)`` does, when every holder books
the same ``L`` ahead.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Simulator
from repro.sim.sync import Lane
from tests.sim.resource import Resource

#: multiples of 2**-20 s add exactly, so ties (same-time arrivals, arrivals
#: at a holder's finish) are common; arbitrary floats exercise rounding
TICK = 2.0 ** -20
times = st.one_of(st.integers(0, 12).map(lambda k: k * TICK),
                  st.floats(0.0, 1e-5, allow_nan=False))
holders = st.lists(st.tuples(times, times), min_size=1, max_size=12)


def bits(xs):
    return [struct.pack("<d", x) for x in xs]


def finishes(arrivals, hold):
    sim = Simulator()
    out = [None] * len(arrivals)

    def holder(i, at, duration):
        yield sim.timeout(at)
        yield from hold(sim, duration)
        out[i] = sim.now

    for i, (at, duration) in enumerate(arrivals):
        sim.process(holder(i, at, duration))
    sim.run()
    return out


@settings(max_examples=300, deadline=None)
@given(holders)
def test_lane_finishes_are_the_fifo_resource_floats(arrivals):
    resources, lanes = {}, {}

    def use(sim, duration):
        res = resources.setdefault(sim, Resource(sim, 1))
        yield from res.use(duration)

    def hold(sim, duration):
        lane = lanes.setdefault(sim, Lane(sim))
        before = len(sim._heap)
        ev = lane.hold(duration)
        assert len(sim._heap) == before + 1
        yield ev

    assert bits(finishes(arrivals, hold)) == bits(finishes(arrivals, use))


def test_hold_is_one_timeout_at_max_now_free_at_plus_duration():
    sim = Simulator()
    lane = Lane(sim)
    first = lane.hold(3 * TICK, "a")
    second = lane.hold(2 * TICK, "b")
    assert [(t, ev._value) for t, _eid, ev in sorted(sim._heap)] == \
        [(3 * TICK, "a"), (5 * TICK, "b")]
    assert lane.free_at == 5 * TICK
    sim.run()
    assert first.processed and second.processed
    # an idle lane starts a holder now, not at its stale free_at
    sim.run(until=9 * TICK)
    lane.hold(TICK)
    assert sim.peek() == 10 * TICK


@settings(max_examples=300, deadline=None)
@given(holders, times)
def test_hold_booked_at_departure_is_the_wire_then_the_lane(departures,
                                                            latency):
    booked, waited = {}, {}

    def ahead(sim, duration):
        lane = booked.setdefault(sim, Lane(sim))
        before = len(sim._heap)
        ev = lane.hold(duration, after=latency)
        assert len(sim._heap) == before + 1
        yield ev

    def wire_then_lane(sim, duration):
        yield sim.timeout(latency)
        yield waited.setdefault(sim, Lane(sim)).hold(duration)

    assert bits(finishes(departures, ahead)) == \
        bits(finishes(departures, wire_then_lane))
