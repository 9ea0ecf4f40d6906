"""LMDB backend adapter: cost accounting, tuning, writer serialization."""

import pytest

from repro import obs
from repro.core.hints import ResolvedHints
from repro.hatkv.backend import BackendCosts, LmdbBackend
from repro.lmdb import SyncMode
from repro.sim.core import Interrupt
from repro.sim.units import us
from repro.testbed import Testbed


@pytest.fixture
def tb():
    return Testbed(n_nodes=1)


@pytest.fixture
def backend(tb):
    return LmdbBackend(tb.node(0))


def run(tb, gen):
    return tb.sim.run(tb.sim.process(gen))


def write_burst(sim, backend, n=4):
    """Run ``n`` Puts issued at one instant to completion; returns the
    writes and the commits they took."""
    writes, commits = backend.writes, backend.env.commits
    sim.run(sim.all_of([sim.process(backend.put(b"burst-%d" % i, b"v"))
                        for i in range(n)]))
    return backend.writes - writes, backend.env.commits - commits


def test_put_get_roundtrip_with_time(tb, backend):
    def flow():
        t0 = tb.sim.now
        yield from backend.put(b"k", b"v" * 100)
        t_put = tb.sim.now - t0
        value = yield from backend.get(b"k")
        return value, t_put

    value, t_put = run(tb, flow())
    assert value == b"v" * 100
    assert t_put > 0  # writes consume simulated time


def test_get_missing_returns_none(tb, backend):
    def flow():
        return (yield from backend.get(b"missing"))

    assert run(tb, flow()) is None


def test_multi_ops(tb, backend):
    keys = [f"k{i}".encode() for i in range(10)]
    values = [f"v{i}".encode() * 10 for i in range(10)]

    def flow():
        yield from backend.multi_put(keys, values)
        got = yield from backend.multi_get(keys + [b"nope"])
        return got

    got = run(tb, flow())
    assert got[:10] == values
    assert got[10] is None
    assert backend.writes == 10
    assert backend.reads == 11


def test_multi_put_length_mismatch(tb, backend):
    def flow():
        yield from backend.multi_put([b"a"], [b"x", b"y"])

    p = tb.sim.process(flow())
    with pytest.raises(ValueError):
        tb.sim.run(p)


def test_writer_serialization(tb, backend):
    """Concurrent writers queue behind the single writer; a stock backend
    gives each its own txn and commit."""
    order = []

    def writer(i):
        yield from backend.put(f"w{i}".encode(), b"data" * 200)
        order.append((i, tb.sim.now))

    for i in range(4):
        tb.sim.process(writer(i))
    tb.sim.run()
    times = [t for _, t in order]
    assert times == sorted(times)
    assert len(set(times)) == 4  # strictly serialized, no two finish together
    assert backend.env.commits == 4


def test_deeper_tree_costs_more(tb):
    costs = BackendCosts()
    shallow = LmdbBackend(tb.node(0), costs=costs)
    deep = LmdbBackend(tb.node(0), costs=costs)
    with deep.env.begin(write=True) as txn:
        for i in range(3000):
            txn.put(f"{i:08d}".encode(), b"v")
    with shallow.env.begin(write=True) as txn:
        txn.put(b"only", b"v")

    def timed_get(b, key):
        t0 = tb.sim.now
        yield from b.get(key)
        return tb.sim.now - t0

    t_shallow = run(tb, timed_get(shallow, b"only"))
    t_deep = run(tb, timed_get(deep, b"00001500"))
    assert t_deep > t_shallow


def test_apply_hints_throughput(tb, backend):
    backend.apply_hints(ResolvedHints.from_mapping(
        {"perf_goal": "throughput", "concurrency": 96}))
    assert backend.env.max_readers == 96
    assert backend.env.sync_mode is SyncMode.NOSYNC
    writes, commits = write_burst(tb.sim, backend)
    assert commits < writes == 4        # the queued writes share a commit


def test_apply_hints_res_util_keeps_durability(tb, backend):
    backend.apply_hints(ResolvedHints.from_mapping(
        {"perf_goal": "res_util"}))
    assert backend.env.sync_mode is SyncMode.SYNC
    assert write_burst(tb.sim, backend) == (4, 4)  # one commit per write


def test_group_commit_cheaper_than_sync(tb):
    sync_b = LmdbBackend(tb.node(0))
    sync_b.env.sync_mode = SyncMode.SYNC
    group_b = LmdbBackend(tb.node(0))
    group_b.apply_hints(ResolvedHints.from_mapping(
        {"perf_goal": "throughput"}))
    assert group_b._commit_cost() < sync_b._commit_cost()


def test_reader_table_backoff(tb):
    """With a tiny reader table, readers wait instead of erroring."""
    backend = LmdbBackend(tb.node(0))
    backend.env.max_readers = 1
    with backend.env.begin(write=True) as txn:
        txn.put(b"k", b"v")
    done = []

    def reader(i):
        v = yield from backend.get(b"k")
        done.append(v)

    # Hold the single reader slot for a while.
    hog = backend.env.begin()

    def release_later():
        yield tb.sim.timeout(20e-6)
        hog.commit()

    tb.sim.process(reader(0))
    tb.sim.process(release_later())
    tb.sim.run()
    assert done == [b"v"]


def test_multi_put_repeated_key_keeps_the_later_value(tb, backend):
    """The batch sort is by key only and stable: a key named twice keeps
    the value given later, not the one that sorts last."""
    def flow():
        yield from backend.multi_put([b"k", b"k"], [b"b-first", b"a-second"])
        return (yield from backend.get(b"k"))

    assert run(tb, flow()) == b"a-second"


def test_stock_multi_put_prices_one_descent_and_n_minus_1_copies(tb, backend):
    """A stock MultiPut is a batch of one write: one descent with its path
    copy, one page copy per further entry and the values copied in."""
    c = backend.costs
    depth = backend._depth()
    keys = [b"k%d" % i for i in range(5)]
    values = [b"v" * (100 * i) for i in range(1, 6)]

    def flow():
        yield from backend.multi_put(keys, values)
        return tb.sim.now

    apply = (c.txn_begin + depth * (c.page_touch + c.page_copy)
             + 4 * c.page_copy + sum(map(len, values)) / c.value_copy_rate)
    assert run(tb, flow()) == apply + c.commit_nosync
    assert (backend.writes, backend.env.commits) == (5, 1)


def test_stock_leader_interrupted_mid_apply_commits(tb, backend):
    """A stock write whose handler dies during its apply charge still
    lands, as any leader's does: the CPU job it was on runs to its end, and
    the next writer starts only when that job and its commit are over."""
    c = backend.costs
    depth = backend._depth()
    log = []
    leader = _writer(tb, backend, log, 0, "put", b"k0", b"v0")
    leader.defuse()
    _writer(tb, backend, log, 1, "put", b"k1", b"v1")
    apply = (c.txn_begin + depth * (c.page_touch + c.page_copy)
             + 2 / c.value_copy_rate)
    ends = []

    def killer():
        yield tb.sim.timeout(apply / 2)
        leader.interrupt("deadline")

    def watch():
        try:
            yield leader
        except Interrupt as exc:
            ends.append((tb.sim.now, exc.cause))

    tb.sim.process(killer())
    tb.sim.process(watch())
    tb.sim.run()
    first = apply + c.commit_nosync
    assert ends == [(first, "deadline")]
    assert log == [(1, first + apply + c.commit_nosync, None)]
    assert (backend.writes, backend.aborts, backend.env.commits) == (2, 0, 2)
    assert run(tb, backend.multi_get([b"k0", b"k1"])) == [b"v0", b"v1"]


def test_put_interrupted_during_its_commit_counts_as_written(tb, backend):
    """Once the write txn has committed, an interrupt during the commit
    charge cannot undo it: the Put is visible and counts in ``writes``."""
    c = backend.costs
    commit_at = c.txn_begin + backend._depth() * (
        c.page_touch + c.page_copy) + 2 / c.value_copy_rate

    def put():
        yield from backend.put(b"k", b"v1")

    victim = tb.sim.process(put())
    victim.defuse()

    def killer():
        yield tb.sim.timeout(commit_at + c.commit_nosync / 2)
        victim.interrupt("connection died")

    tb.sim.process(killer())
    tb.sim.run()
    assert not victim.ok
    assert (backend.writes, backend.aborts) == (1, 0)
    assert run(tb, backend.get(b"k")) == b"v1"


# -- group commit: the throughput perf goal lifts the batch cap ---------------

@pytest.fixture
def group(tb):
    b = LmdbBackend(tb.node(0))
    b.apply_hints(ResolvedHints.from_mapping({"perf_goal": "throughput"}))
    return b


@pytest.fixture(params=["latency", "throughput"], ids=["cap1", "unbounded"])
def any_cap(tb, request):
    """A backend whose batches hold one write, or any number: the failure
    rules are the same for both."""
    b = LmdbBackend(tb.node(0))
    b.apply_hints(ResolvedHints.from_mapping({"perf_goal": request.param}))
    return b


def _writer(tb, b, log, i, op, *args):
    def flow():
        result = yield from getattr(b, op)(*args)
        log.append((i, tb.sim.now, result))
    return tb.sim.process(flow(), name=f"writer-{i}")


def test_group_commit_lone_put_prices_like_the_stock_put(tb, group):
    """A lone Put's apply charge is the stock formula's float; only the
    commit term is the sync mode's one commit (no amortized share)."""
    c = group.costs
    depth = group._depth()
    value = b"v" * 100

    def flow():
        yield from group.put(b"k", value)
        return tb.sim.now

    apply = (c.txn_begin + depth * (c.page_touch + c.page_copy)
             + len(value) / c.value_copy_rate)
    assert run(tb, flow()) == apply + c.commit_nosync
    assert group.env.commits == 1 and group.writes == 1


def test_group_commit_one_commit_per_drain(tb, group):
    """Four writers queued behind a lone leader form the next batch: one
    apply charge, one commit, every member acked when that commit ends."""
    c = group.costs
    log = []
    value = b"d" * 200
    _writer(tb, group, log, 0, "put", b"w0", value)
    for i in range(1, 4):
        _writer(tb, group, log, i, "put", b"w%d" % i, value)
    _writer(tb, group, log, 4, "multi_put", [b"m1", b"m2"], [value, value])
    tb.sim.run()
    depth = group._depth()
    first = (c.txn_begin + depth * (c.page_touch + c.page_copy)
             + len(value) / c.value_copy_rate) + c.commit_nosync
    second = (first + group._apply_cost(depth, 4, 5 * len(value))
              + c.commit_nosync)
    assert log[0] == (0, first, None)
    assert [(i, t) for i, t, _ in log[1:]] == [(i, second)
                                               for i in range(1, 5)]
    assert group.env.commits == 2
    assert (group.writes, group.aborts) == (6, 0)
    got = run(tb, group.multi_get([b"w0", b"w1", b"w2", b"w3", b"m1",
                                   b"m2"]))
    assert got == [value] * 6


def test_group_commit_later_write_to_a_key_wins(tb, group):
    log = []
    _writer(tb, group, log, 0, "put", b"lead", b"x")
    _writer(tb, group, log, 1, "put", b"k", b"z-earlier")
    _writer(tb, group, log, 2, "multi_put", [b"k", b"j"], [b"y", b"j"])
    _writer(tb, group, log, 3, "put", b"k", b"a-later")
    _writer(tb, group, log, 4, "delete", b"j")
    tb.sim.run()
    assert group.env.commits == 2
    assert log[-1][2] is True           # the Delete saw the batch's own j
    assert run(tb, group.get(b"k")) == b"a-later"
    assert run(tb, group.get(b"j")) is None


def test_group_commit_interrupted_queued_writer_is_dropped(tb, any_cap):
    """A write whose handler dies while it is queued leaves the queue: it
    is not applied and counts in ``aborts``; the rest of its batch is."""
    log = []
    _writer(tb, any_cap, log, 0, "put", b"lead", b"x")
    victim = _writer(tb, any_cap, log, 1, "put", b"gone", b"v")
    victim.defuse()
    _writer(tb, any_cap, log, 2, "put", b"kept", b"v")

    def killer():
        yield tb.sim.timeout(0.1 * us)      # inside the leader's apply
        victim.interrupt("deadline")

    tb.sim.process(killer())
    tb.sim.run()
    assert not victim.ok
    assert [i for i, _, _ in log] == [0, 2]
    assert (any_cap.writes, any_cap.aborts, any_cap.env.commits) == (2, 1, 2)
    assert run(tb, any_cap.get(b"gone")) is None
    assert run(tb, any_cap.get(b"kept")) == b"v"


def test_group_commit_interrupted_head_passes_the_lead_on(tb, any_cap):
    """The first queued write is handed the lead when the batch in flight
    ends; if its handler dies before it starts, the next queued write
    leads."""
    log = []
    _writer(tb, any_cap, log, 0, "put", b"lead", b"x")
    victim = _writer(tb, any_cap, log, 1, "put", b"gone", b"v")
    victim.defuse()
    _writer(tb, any_cap, log, 2, "put", b"kept", b"v")
    hand_off = any_cap._hand_off

    def hand_off_then_kill():
        hand_off()
        if victim.is_alive:
            victim.interrupt("deadline")    # between the hand-off and its run

    any_cap._hand_off = hand_off_then_kill
    tb.sim.run()
    assert [i for i, _, _ in log] == [0, 2]
    assert (any_cap.writes, any_cap.aborts, any_cap.env.commits) == (2, 1, 2)
    assert any_cap._batch is None and not any_cap._queue
    assert run(tb, any_cap.get(b"gone")) is None
    assert run(tb, any_cap.get(b"kept")) == b"v"


def test_group_commit_interrupted_lone_head_leaves_the_writer_idle(
        tb, any_cap):
    log = []
    _writer(tb, any_cap, log, 0, "put", b"lead", b"x")
    victim = _writer(tb, any_cap, log, 1, "put", b"gone", b"v")
    victim.defuse()
    hand_off = any_cap._hand_off

    def hand_off_then_kill():
        hand_off()
        if victim.is_alive:
            victim.interrupt("deadline")

    any_cap._hand_off = hand_off_then_kill
    tb.sim.run()
    assert any_cap._batch is None and not any_cap._queue
    run(tb, any_cap.put(b"next", b"v"))     # leads at once: not stuck
    assert (any_cap.writes, any_cap.aborts, any_cap.env.commits) == (2, 1, 2)


def test_group_commit_interrupted_leader_finishes_its_batch(tb, group):
    """An interrupted leader keeps waiting out the CPU job it was on,
    applies and commits its whole batch, acks the members, then
    re-raises; its own write counts as committed."""
    c = group.costs
    log = []
    _writer(tb, group, log, 0, "put", b"lead", b"x")
    leader = _writer(tb, group, log, 1, "put", b"k1", b"v1")
    leader.defuse()
    _writer(tb, group, log, 2, "put", b"k2", b"v2")
    ends = []

    depth = group._depth()
    first = (c.txn_begin + depth * (c.page_touch + c.page_copy)
             + 1 / c.value_copy_rate) + c.commit_nosync
    apply = group._apply_cost(depth, 1, 4)

    def killer():
        yield tb.sim.timeout(first + apply / 2)     # in batch 2's apply
        leader.interrupt("deadline")
        yield tb.sim.timeout(first + apply + c.commit_nosync / 2
                             - tb.sim.now)          # in its commit
        leader.interrupt("deadline again")

    def watch():
        try:
            yield leader
        except Interrupt as exc:
            ends.append((tb.sim.now, exc.cause))

    tb.sim.process(killer())
    tb.sim.process(watch())
    tb.sim.run()
    second = first + apply + c.commit_nosync
    assert log == [(0, first, None), (2, second, None)]
    assert ends == [(second, "deadline")]
    assert (group.writes, group.aborts, group.env.commits) == (3, 0, 2)
    assert run(tb, group.multi_get([b"k1", b"k2"])) == [b"v1", b"v2"]


def test_group_commit_bad_write_fails_alone(tb, any_cap):
    """A write LMDB would refuse is refused before it joins a batch, so it
    cannot abort the txn the other members share."""
    log = []
    _writer(tb, any_cap, log, 0, "put", b"lead", b"x")
    bad = _writer(tb, any_cap, log, 1, "put", "not-bytes", b"v")
    bad.defuse()
    _writer(tb, any_cap, log, 2, "put", b"k", b"v")
    tb.sim.run()
    assert not bad.ok
    assert [i for i, _, _ in log] == [0, 2]


@pytest.mark.filterwarnings("ignore::repro.obs.ObsInstallOrderWarning")
def test_writer_queue_probe_and_batch_histogram():
    """The probe reads the group queue and the batch in flight; the
    histogram records writes per commit.  With obs off neither exists."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=1)
        b = LmdbBackend(tb.node(0))
        b.apply_hints(ResolvedHints.from_mapping({"perf_goal": "throughput"}))
        log = []
        for i in range(5):
            _writer(tb, b, log, i, "put", b"k%d" % i, b"v")
        samples = []

        def sample():
            yield tb.sim.timeout(0.1 * us)      # first batch in flight
            samples.append(reg.probe_values()["hatkv.writer_queue"])
            while len(log) < 1:
                yield tb.sim.timeout(0.01 * us)
            samples.append(reg.probe_values()["hatkv.writer_queue"])

        tb.sim.process(sample())
        tb.sim.run()
        hist = reg.histograms["hatkv.group_commit.batch"]
        assert samples == [{"depth": 4, "batch": 1},
                           {"depth": 0, "batch": 4}]
        assert (hist.count, hist.min_value, hist.max_value) == (2, 1, 4)
    off = LmdbBackend(Testbed(n_nodes=1).node(0))
    assert off._m_batch is None


@pytest.mark.filterwarnings("ignore::repro.obs.ObsInstallOrderWarning")
def test_writer_queue_probe_skips_dead_waiters():
    """Stock backend (cap 1): an interrupted queued write leaves the queue
    at once."""
    with obs.installed() as reg:
        tb = Testbed(n_nodes=1)
        b = LmdbBackend(tb.node(0))
        log = []
        _writer(tb, b, log, 0, "put", b"a", b"v")
        victim = _writer(tb, b, log, 1, "put", b"b", b"v")
        victim.defuse()
        _writer(tb, b, log, 2, "put", b"c", b"v")
        samples = []

        def sample():
            yield tb.sim.timeout(0.05 * us)
            victim.interrupt("deadline")
            yield tb.sim.timeout(0.05 * us)
            samples.append(reg.probe_values()["hatkv.writer_queue"])

        tb.sim.process(sample())
        tb.sim.run()
        assert samples == [{"depth": 1, "batch": 1}]
