"""Property-based tests for the GPS CPU scheduler and memory model."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import CpuScheduler, Simulator
from repro.verbs.memory import Memory


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8),
       st.lists(st.tuples(st.floats(0, 2), st.floats(0.01, 2)),
                min_size=1, max_size=25))
def test_work_conservation(cores, jobs):
    """Total useful core-seconds == total submitted work, always."""
    sim = Simulator()
    cpu = CpuScheduler(sim, cores)
    total = sum(w for _s, w in jobs)

    def job(start, work):
        yield sim.timeout(start)
        yield cpu.compute(work)

    for start, work in jobs:
        sim.process(job(start, work))
    sim.run()
    assert cpu.busy_core_seconds == pytest.approx(total, rel=1e-9)
    assert cpu.runnable == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8),
       st.lists(st.floats(0.01, 2), min_size=1, max_size=20))
def test_makespan_bounds(cores, works):
    """Makespan is bounded below by max(total/cores, longest job) and above
    by the fully serialized sum."""
    sim = Simulator()
    cpu = CpuScheduler(sim, cores)

    def job(work):
        yield cpu.compute(work)

    for w in works:
        sim.process(job(w))
    sim.run()
    makespan = sim.now
    lower = max(sum(works) / cores, max(works))
    assert makespan >= lower * (1 - 1e-9)
    assert makespan <= sum(works) * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.floats(0.1, 3))
def test_spinners_scale_completion_time(cores, n_spinners, work):
    """One finite job among N spinners finishes at work * max(1, (N+1)/C)."""
    sim = Simulator()
    cpu = CpuScheduler(sim, cores)
    tokens = [cpu.spin_begin() for _ in range(n_spinners)]
    done = {}

    def job():
        yield cpu.compute(work)
        done["t"] = sim.now

    sim.process(job())
    sim.run()
    expected = work * max(1.0, (n_spinners + 1) / cores)
    assert done["t"] == pytest.approx(expected, rel=1e-9)
    for tok in tokens:
        cpu.spin_end(tok)


def gps_reference(cores, jobs, spins):
    """Exact GPS completion times, in ``Fraction``s, of ``jobs`` --
    ``(arrival, work)`` -- among busy spinners on during ``[on, off)``."""
    changes = sorted([(Fraction(t), 0, i) for i, (t, _w) in enumerate(jobs)]
                     + [(Fraction(on), 1, +1) for on, _off in spins]
                     + [(Fraction(off), 1, -1) for _on, off in spins])
    now, k, spinning = Fraction(0), 0, 0
    owed, done = {}, {}
    while k < len(changes) or owed:
        r = len(owed) + spinning
        rate = Fraction(1) if r <= cores else Fraction(cores, r)
        finish = now + min(owed.values()) / rate if owed else None
        if k < len(changes) and (finish is None or changes[k][0] < finish):
            until = changes[k][0]
        else:
            until = finish
        for i in owed:
            owed[i] -= rate * (until - now)
        now = until
        for i in [i for i, rem in owed.items() if rem == 0]:
            done[i] = now
            del owed[i]
        while k < len(changes) and changes[k][0] == now:
            _t, kind, arg = changes[k]
            if kind == 0:
                owed[arg] = Fraction(jobs[arg][1])
            else:
                spinning += arg
            k += 1
    return done


def run_observed(cores, jobs, spins):
    """Run ``jobs`` and ``spins`` (as :func:`gps_reference` takes them, a
    spinner as ``(on, hold)``) on one scheduler.  Returns the completion
    times and every wake-up pop as ``(dead, R <= C, version)``, plus the
    version each pass ended at and whether it left the table non-empty."""
    sim = Simulator()
    cpu = CpuScheduler(sim, cores)
    done, pops, passes = {}, [], {}
    tick, reschedule = cpu._tick, cpu._reschedule

    def observed_tick(wake):
        pops.append((wake._value != cpu._version, cpu.runnable <= cores,
                     wake._value))
        tick(wake)

    def observed_reschedule(arriving=None):
        reschedule(arriving)
        passes[cpu._version] = bool(cpu._jobs)

    cpu._tick_callbacks = (observed_tick,)
    cpu._reschedule = observed_reschedule

    def job(i, start, work):
        yield sim.timeout(start)
        yield cpu.compute(work)
        done[i] = sim.now

    def spinner(on, hold):
        yield sim.timeout(on)
        token = cpu.spin_begin()
        yield sim.timeout(hold)
        cpu.spin_end(token)

    for i, (start, work) in enumerate(jobs):
        sim.process(job(i, start, work))
    for on, hold in spins:
        sim.process(spinner(on, hold))
    sim.run()
    return done, pops, passes


_JOBS = st.lists(st.tuples(st.floats(0, 1), st.floats(1e-3, 1)),
                 min_size=1, max_size=10)
_SPINS = st.lists(st.tuples(st.floats(0, 1), st.floats(1e-3, 1)), max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), _JOBS, _SPINS)
# over C by arrivals, back under by completions
@example(1, [(0.0, 1.0), (0.25, 0.5), (0.3, 0.125)], [])
# over C by a spinner mid-job, back under when it leaves, twice
@example(2, [(0.0, 1.0), (0.1, 0.75)], [(0.2, 0.3), (0.6, 0.1)])
# a spinner leaves while the table has jobs and a wake-up is pending
@example(1, [(0.0, 0.5), (0.0, 0.5)], [(0.0, 0.25)])
def test_completion_times_match_exact_gps(cores, jobs, spins):
    """Every completion time is within 1e-9 relative of an exact (rational)
    GPS over the same arrivals and spinner windows, through every crossing
    of R = C either way; and wake-ups belong to over-subscription."""
    windows = [(on, on + hold) for on, hold in spins]
    want = gps_reference(cores, jobs, windows)
    got, pops, passes = run_observed(cores, jobs, spins)
    assert sorted(got) == sorted(want) == list(range(len(jobs)))
    for i, t in got.items():
        assert abs(t - float(want[i])) <= 1e-9 * float(want[i]), (i, t)
    for dead, uncontended, version in pops:
        # pushed only by a pass that left the node over-subscribed ...
        assert passes[version]
        # ... live only while it still is; a dead one popped while R <= C
        # is left from an over-subscribed stretch a later pass ended
        assert dead or not uncontended
        if dead and uncontended:
            assert any(v > version and not left for v, left in passes.items())


@st.composite
def _uncontended(draw):
    """Callers and spinners that never exceed the cores: each caller runs
    one job at a time, and callers + spinners <= cores."""
    cores = draw(st.integers(1, 6))
    n_spin = draw(st.integers(0, cores - 1))
    callers = draw(st.lists(
        st.lists(st.tuples(st.floats(0, 0.5), st.floats(1e-6, 0.5)),
                 min_size=1, max_size=5),
        min_size=1, max_size=cores - n_spin))
    spins = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(1e-3, 1)),
                          min_size=n_spin, max_size=n_spin))
    return cores, callers, spins


@settings(max_examples=60, deadline=None)
@given(_uncontended())
def test_uncontended_compute_is_one_heap_entry(case):
    """With a core per runnable thread, ``compute(w)`` is exactly a
    ``timeout(w)``: the same completion doubles and the same number of
    events, i.e. one heap entry -- no pass, no wake-up, nothing dead."""
    cores, callers, spins = case

    def run(use_cpu):
        sim = Simulator()
        cpu = CpuScheduler(sim, cores)
        trace = []

        def caller(i, steps):
            for k, (gap, work) in enumerate(steps):
                yield sim.timeout(gap)
                yield cpu.compute(work) if use_cpu else sim.timeout(work)
                trace.append((i, k, repr(sim.now)))

        def spinner(on, hold):
            yield sim.timeout(on)
            token = cpu.spin_begin()
            yield sim.timeout(hold)
            cpu.spin_end(token)

        for i, steps in enumerate(callers):
            sim.process(caller(i, steps))
        for on, hold in spins:
            sim.process(spinner(on, hold))
        sim.run()
        return trace, sim.events_executed, cpu

    trace, events, cpu = run(use_cpu=True)
    assert (trace, events) == run(use_cpu=False)[:2]
    assert cpu._version == 0            # no pass ever ran
    total = sum(w for steps in callers for _g, w in steps)
    assert cpu.busy_core_seconds == pytest.approx(total, rel=1e-9)


def run_pieces(cores, case, batched):
    """One caller runs ``times`` pieces of ``work`` from ``start`` -- one
    ``compute(work, times)`` if ``batched``, else ``times`` sequential
    ``compute(work)`` -- among co-running callers (each a list of ``(gap,
    work)`` steps) and spinners ``(on, hold)``.  ``work`` may be a tuple of
    unequal pieces instead (``times`` is then 1): one ``compute(work)``, or
    one sequential ``compute(c)`` per piece.  Returns every completion
    time (``repr``) by caller and step, and the node's busy core-seconds."""
    (start, work, times), callers, spins = case
    sim = Simulator()
    cpu = CpuScheduler(sim, cores)
    done = {}
    sequence = work if type(work) is tuple else (work,) * times

    def pieces():
        yield sim.timeout(start)
        if batched:
            yield cpu.compute(work, times)
        else:
            for c in sequence:
                yield cpu.compute(c)
        done["pieces"] = repr(sim.now)

    def caller(i, steps):
        for k, (gap, w) in enumerate(steps):
            yield sim.timeout(gap)
            yield cpu.compute(w)
            done[i, k] = repr(sim.now)

    def spinner(on, hold):
        yield sim.timeout(on)
        token = cpu.spin_begin()
        yield sim.timeout(hold)
        cpu.spin_end(token)

    sim.process(pieces())
    for i, steps in enumerate(callers):
        sim.process(caller(i, steps))
    for on, hold in spins:
        sim.process(spinner(on, hold))
    sim.run()
    return done, cpu.busy_core_seconds


_PIECES = st.tuples(st.floats(0, 0.5), st.floats(1e-9, 0.1),
                    st.integers(1, 70))
#: a job of unequal pieces (a copy then a post; a poll, a copy-out and a
#: ring re-post), some of them zero
_UNEQUAL = st.tuples(
    st.floats(0, 0.5),
    st.lists(st.one_of(st.floats(1e-9, 0.1), st.just(0.0)),
             min_size=1, max_size=8).map(tuple),
    st.just(1))
_STEPS = st.lists(st.tuples(st.floats(0, 0.5), st.floats(1e-6, 0.5)),
                  min_size=1, max_size=4)


@st.composite
def _pieces_uncontended(draw, pieces=_PIECES):
    """The pieces' caller, co-runners and spinners never exceed the cores."""
    cores = draw(st.integers(1, 6))
    n_spin = draw(st.integers(0, cores - 1))
    callers = draw(st.lists(_STEPS, max_size=cores - n_spin - 1))
    spins = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(1e-3, 1)),
                          min_size=n_spin, max_size=n_spin))
    return cores, (draw(pieces), callers, spins)


def _assert_to_the_float(case):
    cores, run_case = case
    got, busy = run_pieces(cores, run_case, batched=True)
    want, want_busy = run_pieces(cores, run_case, batched=False)
    assert got == want
    assert busy == pytest.approx(want_busy, rel=1e-12)


def _assert_bounded(cores, pieces, callers, spins):
    run_case = (pieces, callers, spins)
    got, busy = run_pieces(cores, run_case, batched=True)
    want, want_busy = run_pieces(cores, run_case, batched=False)
    assert got.keys() == want.keys()
    for key, t in got.items():
        assert abs(float(t) - float(want[key])) <= 1e-12 * float(want[key])
    assert busy == pytest.approx(want_busy, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(_pieces_uncontended())
def test_batched_job_is_its_pieces_to_the_float(case):
    """While R <= C, ``compute(c, times=n)`` fires at the identical double
    that n sequential ``compute(c)`` reach (``t += c``, n additions), every
    co-runner's completions are unchanged, and ``busy_core_seconds`` agrees
    (to rounding: it sums the same work in another order)."""
    _assert_to_the_float(case)


@settings(max_examples=80, deadline=None)
@given(_pieces_uncontended(_UNEQUAL))
def test_unequal_pieces_are_their_pieces_to_the_float(case):
    """The same for a job of unequal pieces ``compute((c1, c2, ...))``:
    one addition per piece, a zero piece done at once."""
    _assert_to_the_float(case)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), _PIECES, st.lists(_STEPS, max_size=5), _SPINS)
# arrives over-subscribed: the pieces run one at a time
@example(1, (0.5, 0.25, 4), [[(0.0, 2.0)]], [])
# loses its core mid-job to an arrival, and to a spinner
@example(1, (0.0, 1.0, 4), [[(1.5, 1.0)]], [])
@example(2, (0.0, 0.125, 9), [[(0.3, 0.5)]], [(0.2, 0.4)])
def test_batched_job_over_subscribed_is_bounded(cores, pieces, callers,
                                                spins):
    """Under R > C a batched job runs piece by piece from the moment it
    lacks a core, so its completion, and every co-runner's, is the
    sequential pieces' to within 1e-12 relative.  (It is equal unless the
    job loses its core at the very instant one of its pieces ends: then it
    takes the piece as not yet ended, where sequential calls may already
    have started the next, and the two differ by one rounding of
    ``(now + c) - now`` against ``c``.)"""
    _assert_bounded(cores, pieces, callers, spins)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), _UNEQUAL, st.lists(_STEPS, max_size=5), _SPINS)
# arrives over-subscribed; loses its core mid-job
@example(1, (0.5, (0.25, 0.0625, 0.5), 1), [[(0.0, 2.0)]], [])
@example(1, (0.0, (0.1, 0.7, 0.3), 1), [[(0.25, 1.0)]], [])
def test_unequal_pieces_over_subscribed_are_bounded(cores, pieces, callers,
                                                    spins):
    """The same bound for a job of unequal pieces."""
    _assert_bounded(cores, pieces, callers, spins)


def test_batched_job_is_one_heap_entry_with_a_core():
    sim = Simulator()
    cpu = CpuScheduler(sim, 1)
    ev = cpu.compute(0.1, 10)
    sim.run()
    assert ev.processed and sim.events_executed == 1
    t = 0.0
    for _ in range(10):
        t += 0.1
    assert sim.now == t != 0.1 * 10


def test_unequal_pieces_are_one_heap_entry_with_a_core():
    sim = Simulator()
    cpu = CpuScheduler(sim, 1)
    sim.run(until=0.7)
    pieces = (1e-7, 3.3e-7, 6e-8)
    ev = cpu.compute(pieces)
    assert len(sim._heap) == 1
    sim.run()
    assert ev.processed and sim.events_executed == 1
    t = 0.7
    for c in pieces:
        t += c
    assert sim.now == t != 0.7 + sum(pieces)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 512),
                          st.binary(min_size=0, max_size=64)),
                min_size=1, max_size=30))
def test_memory_segments_independent(allocs):
    """Writes to one allocation never bleed into another."""
    mem = Memory()
    regions = []
    for size, data in allocs:
        addr = mem.alloc(size)
        payload = (data * (size // max(len(data), 1) + 1))[:size]
        mem.write(addr, payload)
        regions.append((addr, size, payload))
    for addr, size, payload in regions:
        # unwritten tails read back as zero-fill (fresh pages)
        assert mem.read(addr, size) == payload + bytes(size - len(payload))
    assert mem.live_bytes == sum(s for _a, s, _p in regions)
