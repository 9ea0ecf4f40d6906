"""Completion-queue mechanics + memory-watch tests."""

from repro.sim.units import us
from repro.verbs import Opcode, SendWR, Sge, WC, WCOpcode
from repro.verbs.cq import PollMode


def wc(i=0):
    return WC(wr_id=i, opcode=WCOpcode.SEND)


def test_poll_batches_and_preserves_order(tb):
    cq = tb.node(0).nic.create_cq()
    for i in range(5):
        cq.push(wc(i))
    first = cq.poll(max_wc=2)
    assert [w.wr_id for w in first] == [0, 1]
    rest = cq.poll(max_wc=16)
    assert [w.wr_id for w in rest] == [2, 3, 4]
    assert cq.poll() == []
    assert cq.completions_total == 5


def test_wait_busy_returns_immediately_when_ready(tb):
    cq = tb.node(0).nic.create_cq()
    cq.push(wc())

    def waiter():
        t0 = tb.sim.now
        wcs = yield from cq.wait(PollMode.BUSY)
        return len(wcs), tb.sim.now - t0

    n, dt = tb.sim.run(tb.sim.process(waiter()))
    assert n == 1
    assert dt < 1 * us  # just the poll cost


def test_wait_event_pays_interrupt_latency(tb):
    dev = tb.node(0).nic
    cq = dev.create_cq()
    out = {}

    def waiter():
        t0 = tb.sim.now
        wcs = yield from cq.wait(PollMode.EVENT)
        out["dt"] = tb.sim.now - t0
        out["n"] = len(wcs)

    def producer():
        yield tb.sim.timeout(5 * us)
        cq.push(wc())

    tb.sim.process(waiter())
    tb.sim.process(producer())
    tb.sim.run()
    assert out["n"] == 1
    assert out["dt"] >= 5 * us + dev.cost.interrupt_latency * 0.99


def test_wait_event_skips_interrupt_if_already_ready(tb):
    cq = tb.node(0).nic.create_cq()
    cq.push(wc())

    def waiter():
        t0 = tb.sim.now
        yield from cq.wait(PollMode.EVENT)
        return tb.sim.now - t0

    dt = tb.sim.run(tb.sim.process(waiter()))
    assert dt < tb.node(0).nic.cost.interrupt_latency


def test_wait_dispatch_by_mode(tb):
    cq = tb.node(0).nic.create_cq()
    cq.push(wc())
    cq.push(wc())

    def flow():
        a = yield from cq.wait(PollMode.BUSY, max_wc=1)
        b = yield from cq.wait(PollMode.EVENT, max_wc=1)
        return len(a), len(b)

    assert tb.sim.run(tb.sim.process(flow())) == (1, 1)


def test_mem_watch_fires_on_overlapping_write(tb, pair):
    rdev = pair.sdev
    rmr = pair.spd.reg_mr(256)
    watch = rdev.watch_memory(rmr.addr, 128)
    hits = []

    def watcher():
        yield watch.gate.wait()
        hits.append(tb.sim.now)

    tb.sim.process(watcher())
    smr = pair.cpd.reg_mr(64)
    smr.write(b"W" * 64)

    def client():
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_WRITE, Sge(smr.addr, 64, smr.lkey),
            remote_addr=rmr.addr, rkey=rmr.rkey, signaled=False))
        yield tb.sim.timeout(20 * us)

    tb.sim.run(tb.sim.process(client()))
    assert len(hits) == 1


def test_mem_watch_ignores_disjoint_write(tb, pair):
    rdev = pair.sdev
    rmr = pair.spd.reg_mr(256)
    watch = rdev.watch_memory(rmr.addr, 16)  # watch only the first 16 bytes
    woke = []

    def watcher():
        yield watch.gate.wait()
        woke.append(1)

    proc = tb.sim.process(watcher())
    smr = pair.cpd.reg_mr(64)

    def client():
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_WRITE, Sge(smr.addr, 32, smr.lkey),
            remote_addr=rmr.addr + 128, rkey=rmr.rkey, signaled=False))
        yield tb.sim.timeout(20 * us)

    tb.sim.run(tb.sim.process(client()))
    assert woke == []
    proc.defuse()


def test_mem_watch_cancel(tb):
    dev = tb.node(0).nic
    pd = dev.alloc_pd()
    mr = pd.reg_mr(64)
    watch = dev.watch_memory(mr.addr, 64)
    watch.cancel()
    dev._notify_write(mr.addr, 8)  # must not fire anything
    assert watch.gate.n_waiting == 0
    watch.cancel()  # idempotent


def test_overlapping_watches_fire_in_registration_order(tb):
    """Watches are kept by address; a write that several of them overlap
    still wakes them in the order they were registered (so no event moves),
    and touches none of the watches around it."""
    dev = tb.node(0).nic
    mr = dev.alloc_pd().reg_mr(4096)
    spec = [(512, 64), (256, 512), (0, 4096), (520, 8), (1024, 64),
            (512, 64), (0, 256), (576, 16)]
    watches = [dev.watch_memory(mr.addr + off, n) for off, n in spec]
    order = []

    def watcher(k):
        while True:
            yield watches[k].gate.wait()
            order.append(k)

    procs = [tb.sim.process(watcher(k)) for k in range(len(spec))]
    tb.sim.run()
    dev._notify_write(mr.addr + 516, 8)         # [516, 524)
    tb.sim.run()
    assert order == [0, 1, 2, 3, 5]
    watches[2].cancel()
    watches[0].cancel()
    assert [w.addr for w in dev._watches] == sorted(dev._watch_addrs)
    order.clear()
    dev._notify_write(mr.addr + 255, 2)         # [255, 257): #6 and #1
    tb.sim.run()
    assert order == [1, 6]
    for p in procs:
        p.defuse()
