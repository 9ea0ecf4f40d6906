"""The closed-loop driver's one window rule, on synthetic clients whose
every call takes a known time (exact binary fractions, so the window and
throughput compare with ``==``)."""

from repro.bench.loop import run_closed_loop
from repro.sim.core import Simulator

#: per client: (connect time, delay of each call); one warm-up call each.
#: The warm-up calls take 0.25 s, every measured call a whole second or
#: more, so a leaked warm-up sample would show in the statistics.
#: Client 0 runs 0 .. 0.25 (warm-up), 0.25 .. 3.25, 3.25 .. 5.25;
#: client 1 runs 1 .. 1.25 (warm-up), 1.25 .. 2.25, 2.25 .. 3.25.
CLIENTS = [(0.0, [0.25, 3.0, 2.0]),
           (1.0, [0.25, 1.0, 1.0])]
WARMUP, ITERS = 1, 2


class Posted:
    """A pipelined call's handle, shaped like ``StubCallHandle``."""

    method = "op"

    def __init__(self, sim, delay):
        self.handle = self
        self.t_done = sim.now + delay
        self.done = sim.timeout(delay)

    def wait(self):
        yield self.done


def run(iters=ITERS, counted=None, labels=None):
    sim = Simulator()
    spans = []                     # (client, k, start, end) of every call

    def connect(node, i):
        assert node == f"node{i}"
        yield sim.timeout(CLIENTS[i][0])
        return i

    def call(i, _i, k):
        t0 = sim.now
        yield sim.timeout(CLIENTS[i][1][k])
        spans.append((i, k, t0, sim.now))
        return labels[i] if labels else "op"

    loop = run_closed_loop(sim, ["node0", "node1"], len(CLIENTS), WARMUP,
                           iters, connect, call, counted=counted)
    return loop, spans


def test_warmup_calls_are_dropped_per_client():
    loop, spans = run()
    assert len(spans) == len(CLIENTS) * (WARMUP + ITERS)
    assert loop.ops == len(CLIENTS) * ITERS
    # in completion order; the 0.25 s warm-up calls left no sample
    assert loop.stats["op"].samples == [1.0, 3.0, 1.0, 2.0]


def test_window_runs_from_first_measured_start_to_last_measured_end():
    loop, _ = run()
    # The window opens at the start of the first measured call to
    # complete -- client 1's 1.25 .. 2.25, although client 0's first
    # measured call started earlier, at 0.25 -- and closes at the last
    # measured completion, client 0's at 5.25.
    assert (loop.start, loop.end) == (1.25, 5.25)


def test_throughput_is_measured_ops_over_the_window():
    loop, _ = run()
    assert loop.throughput == 4 / (5.25 - 1.25) == 1.0


def test_counted_labels_limit_the_window_not_the_statistics():
    loop, _ = run(counted=("slow",), labels=["slow", "fast"])
    assert loop.ops == ITERS
    assert (loop.start, loop.end) == (0.25, 5.25)
    assert loop.throughput == ITERS / 5.0
    assert loop.stats["fast"].samples == [1.0, 1.0]
    assert loop.stats["slow"].samples == [3.0, 2.0]


def test_pipelined_calls_take_their_own_completion_times():
    sim = Simulator()

    def connect(_node, i):
        yield sim.timeout(CLIENTS[i][0])
        return i

    def post(i, _i, k):
        return Posted(sim, CLIENTS[i][1][k])
        yield  # pragma: no cover

    loop = run_closed_loop(sim, ["node0", "node1"], len(CLIENTS), WARMUP,
                           ITERS, connect, post, pipelined=True)
    # every call of a client is posted at its connect time; client 0's
    # third call (0 .. 2) is waited on only after its second (0 .. 3)
    assert loop.stats["op"].samples == [1.0, 1.0, 3.0, 2.0]
    assert (loop.start, loop.end, loop.ops) == (1.0, 3.0, 4)


def test_no_measured_call_reports_zero():
    loop, spans = run(iters=0)
    assert len(spans) == len(CLIENTS) * WARMUP
    assert loop.ops == 0 and loop.start is None
    assert loop.throughput == 0.0
    assert loop.stats["op"].count == 0
