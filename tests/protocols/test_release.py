"""No protocol reads a registered-memory slot after releasing it.

Every endpoint releases a slot (``MR.discard``) at the first point where the
protocol guarantees nobody reads it before it is rewritten: a source slot
once the NIC has gathered it, a sink slot once the CPU has read the message
out of it.  A release drops the slot's extents, so the slot reads as zeros --
which a protocol that read it too early might not notice.  Here a release
*poisons* the slot instead: a read that comes too late returns the pattern,
and a reply that was built from it differs from its request.

Every registry row (and the SRQ server) runs under busy and event polling,
at window 1 and, where the row pipelines, window 4, with messages either
side of the 4 KiB eager threshold and RFP's 4 KiB speculative READ, and one
of 128 KiB; every reply must equal its request.  A 2-shard HatKV cluster
runs a Get / MultiGet / Put loop under the same poison, checked by the
reply oracle.  The last test shows that the poison bites: releasing
Read-RNDV's staging buffer before the peer's FIN corrupts the payload.
"""

import random
from dataclasses import replace

import pytest

from repro.protocols import (
    ProtoConfig,
    SrqEagerServer,
    get_protocol,
    protocol_names,
)
from repro.protocols.twosided import TwoSidedEndpoint
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.verbs.cq import PollMode
from repro.verbs.memory import _Segment

from tests.protocols.conftest import SERVICE, echo_handler

#: Eager threshold and RFP's first READ are both 4 KiB (+ a 32 B header).
SIZES = [0, 64, 4064, 4096, 4097, 4129, 9000, 128 * KiB]
MAX_MSG = 160 * KiB
PATTERN = b"\xde\xad\xbe\xef"

ALL = protocol_names()
PIPELINED = [p for p in ALL if get_protocol(p)[0].supports_pipelining]
SRQ = "eager_sendrecv+srq"

CELLS = [(p, mode, window)
         for p in ALL + [SRQ] for mode in ("busy", "event")
         for window in ((1, 4) if p in PIPELINED + [SRQ] else (1,))]


@pytest.fixture
def poison(monkeypatch):
    """A release overwrites its range with ``PATTERN`` instead of dropping
    it."""
    def discard(seg, off, n):
        if n > 0:
            seg.write(off, (PATTERN * (n // len(PATTERN) + 1))[:n])

    monkeypatch.setattr(_Segment, "discard", discard)


def exchange(proto, mode, window):
    """Two clients on two nodes each send every size up and back down
    through an echo server; returns (requests, replies) in call order.
    Pipelined replies come back in arrival order (the SRQ server answers
    a burst's small requests first), so a burst's replies are sorted like
    its requests."""
    tb = Testbed(n_nodes=3)
    cfg = ProtoConfig(poll_mode=PollMode[mode.upper()], max_msg=MAX_MSG,
                      window=window)
    client_cls, server_cls = get_protocol(proto.split("+")[0])
    if proto == SRQ:
        server_cls = SrqEagerServer
    server_cls(tb.node(1).nic, SERVICE, echo_handler, cfg).start()
    sent, got = [], []

    def client(node):
        rng = random.Random(node)
        c = client_cls(tb.node(node).nic, cfg)
        yield from c.connect(tb.node(1), SERVICE)
        payloads = [rng.randbytes(n) for n in SIZES + SIZES[::-1]]
        for base in range(0, len(payloads), window):
            burst = payloads[base:base + window]
            if window == 1:
                replies = [(yield from c.call(burst[0]))]
            else:
                for req in burst:
                    yield from c.post(req)
                replies = []
                for _ in burst:
                    replies.append((yield from c.recv()))
                burst, replies = sorted(burst), sorted(replies)
            sent.extend(burst)
            got.extend(replies)

    procs = [tb.sim.process(client(node)) for node in (0, 2)]
    tb.sim.run()
    for p in procs:
        p.value
    return sent, got


@pytest.mark.parametrize("proto,mode,window", CELLS)
def test_every_reply_equals_its_request_under_poisoned_release(
        poison, proto, mode, window):
    sent, got = exchange(proto, mode, window)
    assert len(sent) == 4 * len(SIZES)
    assert got == sent


def test_hatkv_get_multiget_put_loop_under_poisoned_release(poison):
    """Two shards, replicas=2, eight pipelined clients: every value read
    must be one the oracle admits."""
    from perfbench.oracle import KVOracle
    from repro.hatkv import ShardedKVCluster, load_hatkv_module
    from repro.ycsb.workload import WORKLOAD_B, OpType, Workload

    spec = replace(WORKLOAD_B, record_count=400,
                   mix=((OpType.GET, 0.4), (OpType.MULTI_GET, 0.3),
                        (OpType.PUT, 0.3)))
    n_clients, ops = 8, 12
    tb = Testbed(n_nodes=4)
    sim = tb.sim
    gen = load_hatkv_module("function", concurrency=n_clients)
    cluster = ShardedKVCluster(tb, 2, gen_module=gen, replicas=2,
                               concurrency=n_clients).start()
    loaded = dict(Workload(spec, seed=1).load_items())
    cluster.load(loaded.items())
    oracle = KVOracle(loaded)
    checked = []

    def client(i):
        wl = Workload(spec, seed=7919 + i)
        router = yield from cluster.connect(tb.nodes[2 + i % 2], cache=False)
        for _ in range(ops):
            op, args = wl.next_op()
            t0 = sim.now
            if op is OpType.GET:
                res = yield from router.Get(args[0])
                assert res.found
                checked.append(oracle.check_read(args[0], res.value, t0,
                                                 sim.now))
            elif op is OpType.MULTI_GET:
                values = yield from router.MultiGet(args[0])
                assert len(values) == len(args[0])
                checked.extend(oracle.check_read(k, v, t0, sim.now)
                               for k, v in zip(args[0], values))
            else:
                w = oracle.begin_write(args[0], args[1], t0)
                yield from router.Put(*args)
                oracle.end_write(w, sim.now)

    procs = [sim.process(client(i)) for i in range(n_clients)]
    sim.run()
    for p in procs:
        p.value
    assert len(checked) > n_clients * ops // 2
    assert all(checked)


def test_poison_catches_a_release_before_fin(poison, monkeypatch):
    """Read-RNDV's staging buffer is READ by the peer until its FIN
    arrives; releasing it when the RTS is out makes the peer READ the
    poison."""
    await_fin = TwoSidedEndpoint._await_fin

    def release_early(self, seq):
        self._staging.discard(self._staging.length)
        yield from await_fin(self, seq)

    monkeypatch.setattr(TwoSidedEndpoint, "_await_fin", release_early)
    sent, got = exchange("read_rndv", "busy", 1)
    assert got != sent
    assert any(PATTERN * 4 in reply for reply in got)
