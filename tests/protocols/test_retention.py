"""Registered memory holds only the messages still in use.

Every endpoint releases a slot once its message is sent or read, so the
host bytes that registered memory holds (``Memory.resident_bytes``, summed
over the nodes) do not grow with the number of calls: they are the same
after N calls and after 4N, and with one call outstanding they are at most
one message per direction per connection -- RFP's ``respbuf``, which the
client READs whenever it likes, is the one slot that keeps its message
after the call, until the connection's next request is read.
Without the releases a message stayed in the sender's slot and the
receiver's until its window wrapped.
"""

import random

import pytest

from repro.protocols import HDR_BYTES, ProtoConfig
from repro.sim.units import KiB
from repro.testbed import Testbed

from tests.protocols.conftest import make_pair

SIZE = 5000          # past the 4 KiB eager threshold and RFP's first READ
N = 3


def resident(tb) -> int:
    return sum(node.nic.mem.resident_bytes for node in tb.nodes)


def echo_calls(c, window, sizes, rng):
    """Coroutine: echo one random payload of each size through client
    ``c``, ``window`` calls at a time."""
    for base in range(0, len(sizes), window):
        burst = [rng.randbytes(n) for n in sizes[base:base + window]]
        if window == 1:
            replies = [(yield from c.call(burst[0]))]
        else:
            for req in burst:
                yield from c.post(req)
            replies = []
            for _ in burst:
                replies.append((yield from c.recv()))
        assert sorted(replies) == sorted(burst)


@pytest.mark.parametrize("proto,window", [("direct_writeimm", 8),
                                          ("eager_sendrecv", 4),
                                          ("rfp", 1), ("herd", 1)])
def test_resident_bytes_do_not_grow_with_the_number_of_calls(proto, window):
    tb = Testbed(n_nodes=2)
    cfg = ProtoConfig(max_msg=16 * KiB, window=window)
    _, connect = make_pair(tb, proto, cfg)
    held = []
    rng = random.Random(0)

    def client():
        c = yield from connect()
        for calls in (N, 3 * N):            # N, then 4N in all
            yield from echo_calls(c, window, [SIZE] * calls, rng)
            held.append(resident(tb))

    tb.sim.run(tb.sim.process(client()))
    assert held[0] == held[1]
    assert held[1] <= 2 * (HDR_BYTES + SIZE)


def test_ycsb_geometry_holds_at_most_a_message_per_direction():
    """perfbench's YCSB channel: direct_writeimm, a 48-slot window of
    18 KiB slots, two connections, one call outstanding on each; message
    sizes from a Get's to a MultiGet reply's."""
    tb = Testbed(n_nodes=2)
    cfg = ProtoConfig(max_msg=18 * KiB, window=48)
    _, connect = make_pair(tb, "direct_writeimm", cfg)
    rng = random.Random(3)
    sizes = [rng.randrange(64, 11 * KiB) for _ in range(120)]
    bound = 2 * 2 * (HDR_BYTES + max(sizes))    # 2 connections x 2 ways
    worst = []

    def client():
        c = yield from connect()
        for n in sizes:
            yield from echo_calls(c, 1, [n], rng)
            worst.append(resident(tb))

    procs = [tb.sim.process(client()) for _ in range(2)]
    tb.sim.run()
    for p in procs:
        p.value
    assert len(worst) == 2 * len(sizes)
    assert max(worst) <= bound
    assert resident(tb) == 0
