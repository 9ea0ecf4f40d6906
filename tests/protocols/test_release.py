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
reply oracle.  An RFP call abandoned mid-READ is followed by the next call
on the same connection, whose request makes the server release the reply
that READ was fetching.  The last test shows that the poison bites:
releasing Read-RNDV's staging buffer before the peer's FIN corrupts the
payload.
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
from repro.protocols.serverbypass import BypassServerEnd
from repro.protocols.twosided import TwoSidedEndpoint
from repro.sim.core import Interrupt
from repro.sim.units import KiB
from repro.testbed import Testbed
from repro.verbs.cq import PollMode
from repro.verbs.memory import Slice, _Segment
from repro.verbs.qp import QP, _Chain
from repro.verbs.types import Opcode

from tests.protocols.conftest import SERVICE, echo_handler, make_pair

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


@pytest.mark.parametrize("mode", ["busy", "event"])
def test_rfp_call_after_a_deadline_mid_read_gets_its_own_bytes(
        poison, monkeypatch, mode):
    """Call 1's tail READ is on the wire when its deadline interrupts it,
    as the engine's deadline does; call 2 goes out on the same connection.
    The abandoned READ was posted before request 2, so RC serves it first:
    it gathers reply 1, not the poison the server writes when request 2 is
    read and reply 1 released -- and call 2 returns its own bytes."""
    tb = Testbed(n_nodes=2)
    sim = tb.sim
    slot = 4 * KiB
    cfg = ProtoConfig(poll_mode=PollMode[mode.upper()], max_msg=MAX_MSG,
                      rfp_first_read=slot)
    _, connect = make_pair(tb, "rfp", cfg)
    client = sim.run(sim.process(connect()))
    first, second = (random.Random(s).randbytes(64 * KiB) for s in (1, 2))
    served, released = {}, []           # READ wr_id -> (time, bytes)

    read_serve = _Chain._read_serve

    def record_serve(chain, ev):
        read_serve(chain, ev)
        wr = chain.wrs[ev._value]
        pieces = chain.payloads[ev._value]
        pieces = pieces if type(pieces) is list else [pieces]
        served[wr.wr_id] = (sim.now, b"".join(
            bytes(p) if type(p) is Slice else p for p in pieces))

    retire = BypassServerEnd._retire_reply

    def record_release(ep):
        released.append(sim.now)
        retire(ep)

    post_send = QP.post_send
    abandoned = []

    def deadline_at_tail_read(qp, wr, **kw):
        yield from post_send(qp, wr, **kw)
        if (qp is client.qp and wr.opcode is Opcode.RDMA_READ
                and wr.sge.length == len(first) - slot
                and not abandoned):
            abandoned.append(wr.wr_id)
            sim.timeout(0).callbacks.append(
                lambda ev: call1.interrupt("deadline"))

    monkeypatch.setattr(_Chain, "_read_serve", record_serve)
    monkeypatch.setattr(BypassServerEnd, "_retire_reply", record_release)
    monkeypatch.setattr(QP, "post_send", deadline_at_tail_read)

    def abandon():
        try:
            yield from client.call(first)
        except Interrupt:
            return "deadline"

    call1 = sim.process(abandon())
    assert sim.run(call1) == "deadline"
    (tail,) = abandoned
    assert tail not in served               # still on the wire
    assert sim.run(sim.process(client.call(second))) == second
    # Released when request 1 and request 2 were read; the abandoned READ
    # was served between the two, with reply 1's tail.
    assert len(released) == 2
    t_served, got = served[tail]
    assert released[0] < t_served < released[1]
    assert got == first[slot:]


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
