"""Payloads cross the server-bypass protocols by reference.

The client writes its control header and its request as two extents of the
staging buffer, the NIC gathers and scatters them, and the server reads
back the request object; the server publishes its reply object, and RFP's
speculative READ and tail READ land it again in the client's fetch buffer.
``is``, not ``==``.  And the count that this buys: the host copies of a
128 KiB ``rfp`` Echo through the whole stack are Thrift's four -- the
client's message join, the server's field cut, the reply join and the
client's field cut (DESIGN.md section 3, "Kernel invariants").
"""

import gc
import sys

import pytest

from repro.core.engine import pinned_plan
from repro.core.resilience import RetryPolicy
from repro.core.runtime import HatRpcServer, hatrpc_connect
from repro.idl import load_idl
from repro.protocols import ProtoConfig
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.verbs.cq import PollMode

from tests.protocols.conftest import make_pair

BIG = 128 * KiB


@pytest.mark.parametrize("proto", ["pilaf", "farm", "rfp"])
def test_request_and_reply_arrive_as_the_objects_sent(tb, proto):
    request = bytes(range(251)) * (BIG // 251)
    reply = bytes(range(250, -1, -1)) * (BIG // 251)
    received = []

    def handler(req):
        received.append(req)
        return reply

    cfg = ProtoConfig()   # an RFP reply this long needs two READs
    server, connect = make_pair(tb, proto, cfg, handler=handler)

    def client():
        c = yield from connect()
        return (yield from c.call(request))

    resp = tb.sim.run(tb.sim.process(client()))
    assert received[0] is request
    assert resp is reply


class LargeObjects:
    """Every distinct ``bytes``/``bytearray`` of ``floor`` bytes or more
    that a Python frame holds -- as a local, in a list or tuple local, or as
    its return value -- at a return or yield while :meth:`watch` runs.  A
    copy that reaches any Python code is seen; objects are kept, so an id is
    never reused for a new object."""

    def __init__(self, floor: int):
        self.floor = floor
        self.seen = {}

    def _add(self, v) -> None:
        if type(v) in (bytes, bytearray) and len(v) >= self.floor:
            self.seen.setdefault(id(v), v)

    def _hook(self, frame, event, arg) -> None:
        if event == "return":
            self._add(arg)
            for v in frame.f_locals.values():
                if type(v) in (list, tuple):
                    for item in v:
                        self._add(item)
                else:
                    self._add(v)

    def watch(self, fn):
        """``fn()``, and the objects first seen while it ran.

        The collector runs before and not during: a collection inside
        ``fn`` would close garbage generators left by earlier code (a
        previous test's serve loops) and their locals would be counted."""
        before = len(self.seen)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        previous = sys.getprofile()
        sys.setprofile(self._hook)
        try:
            result = fn()
        finally:
            sys.setprofile(previous)
            if was_enabled:
                gc.enable()
        return result, list(self.seen.values())[before:]


def test_full_stack_rfp_echo_of_128_kib_is_copied_four_times():
    gen = load_idl("service Mirror {\n binary Echo(1: binary payload)\n}",
                   "zero_copy_mirror_gen")
    tb = Testbed(n_nodes=2)
    plan = pinned_plan("Mirror", ["Echo"], "rfp", PollMode.EVENT,
                       max_msg=256 * KiB)
    HatRpcServer(tb.node(0), gen, "Mirror", type(
        "H", (), {"Echo": lambda self, payload: payload})(), plan=plan).start()
    stub = tb.sim.run(tb.sim.process(hatrpc_connect(
        tb.node(1), tb.node(0), gen, "Mirror", plan=plan,
        retry_policy=RetryPolicy(max_attempts=1))))
    big = LargeObjects(32 * KiB)

    def echo(payload):
        big.seen.setdefault(id(payload), payload)   # the input is no copy

        def call():
            return (yield from stub.Echo(payload))
        return big.watch(lambda: tb.sim.run(tb.sim.process(call())))

    # The first Echo on a connection, then one whose (shorter) reply the
    # speculative READ lands over the first one's: four copies each.
    for n in (BIG + 2 * KiB, BIG):
        payload = bytes(range(251)) * (n // 251)
        got, copies = echo(payload)
        assert got == payload
        assert sorted(len(c) for c in copies) == sorted(
            [len(payload)] * 2 + [len(got) + 24] * 2), \
            [len(c) for c in copies]
