"""Tests for the wire model."""

import pytest

from repro.sim.core import Interrupt
from repro.sim.units import Gbps, us
from repro.testbed import Testbed


def test_transmit_time_small_message():
    tb = Testbed(n_nodes=2)
    fp = tb.fabric.params

    def proc():
        t0 = tb.sim.now
        yield from tb.fabric.transmit(tb.node(0), tb.node(1), 64)
        return tb.sim.now - t0

    p = tb.sim.process(proc())
    elapsed = tb.sim.run(p)
    ser = (64 + fp.per_message_wire_overhead) / fp.link_rate
    assert elapsed == pytest.approx(2 * ser + fp.wire_latency)


def test_transmit_bandwidth_large_message():
    tb = Testbed(n_nodes=2)
    size = 128 * 1024

    def proc():
        t0 = tb.sim.now
        yield from tb.fabric.transmit(tb.node(0), tb.node(1), size)
        return tb.sim.now - t0

    p = tb.sim.process(proc())
    elapsed = tb.sim.run(p)
    # 128 KiB at 100 Gb/s is ~10.5 us serialization; model charges it twice
    # (egress + ingress) plus 1 us wire latency.
    assert 20 * us < elapsed < 25 * us


def test_rate_cap_slows_transfer():
    tb = Testbed(n_nodes=2)
    size = 1024 * 1024
    times = {}

    def proc(tag, cap):
        t0 = tb.sim.now
        yield from tb.fabric.transmit(tb.node(0), tb.node(1), size, rate_cap=cap)
        times[tag] = tb.sim.now - t0

    p = tb.sim.process(proc("fast", None))
    tb.sim.run(p)
    p = tb.sim.process(proc("slow", 10 * Gbps))
    tb.sim.run(p)
    assert times["slow"] > 5 * times["fast"]


def test_incast_serializes_at_receiver():
    """Two senders to one receiver share its ingress: total time ~2x one flow."""
    tb = Testbed(n_nodes=3)
    size = 512 * 1024
    done = []

    def sender(i):
        yield from tb.fabric.transmit(tb.node(i), tb.node(2), size)
        done.append(tb.sim.now)

    tb.sim.process(sender(0))
    tb.sim.process(sender(1))
    tb.sim.run()
    one_flow_ser = tb.fabric.ports["node2"].wire_time(size)
    # The later finisher must have queued behind the earlier at node2's RX.
    assert done[1] - done[0] >= one_flow_ser * 0.95


def test_negative_size_rejected():
    tb = Testbed(n_nodes=2)

    def proc():
        yield from tb.fabric.transmit(tb.node(0), tb.node(1), -1)

    p = tb.sim.process(proc())
    with pytest.raises(ValueError):
        tb.sim.run(p)


def test_port_counters():
    tb = Testbed(n_nodes=2)

    def proc():
        yield from tb.fabric.transmit(tb.node(0), tb.node(1), 1000)

    tb.sim.run(tb.sim.process(proc()))
    assert tb.fabric.ports["node0"].bytes_sent == 1000
    assert tb.fabric.ports["node1"].bytes_received == 1000


def test_interrupted_sender_keeps_the_port_until_its_frame_left():
    """A frame that started serializing leaves whole: interrupting its
    sender (a deadline, say) does not hand the TX port to the next sender
    before the frame's last byte is out."""
    tb = Testbed(n_nodes=2)
    sim, fabric = tb.sim, tb.fabric
    big, small = 256 * 1024, 64
    port = fabric.ports["node0"]
    ser_big, ser_small = port.wire_time(big), port.wire_time(small)
    arrivals = {}

    def sender(tag, nbytes):
        try:
            arrivals[tag] = yield from fabric.transmit(
                tb.node(0), tb.node(1), nbytes)
        except Interrupt:
            arrivals[tag] = None

    a = sim.process(sender("a", big))
    sim.process(sender("b", small))

    def deadline():
        yield sim.timeout(ser_big / 2)
        a.interrupt("deadline")

    sim.process(deadline())
    sim.run()
    assert arrivals["a"] is None
    assert arrivals["b"] == (ser_big + ser_small
                             + fabric.params.wire_latency) + ser_small
