"""Heap entries per call of a 64 B ``direct_writeimm`` Echo.

Every heap entry a message costs is a hop the model can observe: each one
is a CPU job, a port-lane slot, an ACK or a wake-up the paper's cost chain
prices (WQE build plus doorbell, the wire, inbound DMA, the poll; §3.2).
A steady-state Echo at the protocol layer costs, per side and message:

* the sender's copy into its staging slot plus WQE build and doorbell --
  one CPU job;
* the TX lane slot, then the wire and the receiver's RX lane slot -- one
  entry, booked as the packet leaves;
* the ACK's way back -- one timeout;
* the receiver's wake-up (busy: the CQ push resumes the spinner; event:
  the channel fires it ``interrupt_latency`` later, one entry);
* the receiver's poll plus its ring re-post -- one CPU job;

so 6 per message and 12 per call, under busy and event polling alike.
(It was 18 and 20 while the copy and the post, the poll and the re-post,
the wire and the RX lane, and an event-mode wake-up and its interrupt
latency were separate entries.)  A change that adds a hop (or removes
one) moves these counts: pin the new number here with the reason.
"""

import pytest

from repro.protocols import ProtoConfig
from repro.testbed import Testbed
from repro.verbs.cq import PollMode

from tests.protocols.conftest import make_pair

HOPS_PER_CALL = {"busy": 12, "event": 12}


def events_per_call(mode: str, calls: int) -> float:
    tb = Testbed(n_nodes=2)
    cfg = ProtoConfig(poll_mode=PollMode[mode.upper()])
    _server, connect = make_pair(tb, "direct_writeimm", cfg)
    request = bytes(range(64))
    counts = []

    def client():
        c = yield from connect()
        for _ in range(3):                      # warm up past the setup
            yield from c.call(request)
        for n in (calls, 2 * calls):
            counts.append(tb.sim.events_executed)
            for _ in range(n):
                assert (yield from c.call(request)) == request
        counts.append(tb.sim.events_executed)

    tb.sim.run(tb.sim.process(client()))
    first, second = counts[1] - counts[0], counts[2] - counts[1]
    assert second == 2 * first          # steady state: no per-run drift
    return first / calls


@pytest.mark.parametrize("mode", sorted(HOPS_PER_CALL))
def test_heap_entries_per_echo_call(mode):
    assert events_per_call(mode, 20) == HOPS_PER_CALL[mode]
