"""The closed-loop ping-pong driver every throughput bench runs.

Figures 4-5 and 11-16 of the paper are closed-loop runs (Sections 3.1,
5.1-5.4): N clients, spread round-robin over the client nodes, each make
``warmup + iters`` calls back to back, and each client's first ``warmup``
calls are dropped.  :func:`run_closed_loop` owns that loop; a bench
supplies only how a client connects and what one call is.

The one window rule: the measured window opens at the start of the first
measured call to complete and closes at the last measured completion;
throughput is measured ops over that window,
``ops / max(end - start, 1e-12)`` (0 when nothing was measured).  Because
clients connect concurrently, the window includes the tail of the connect
ramp (ROADMAP item 10).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Container, Dict, Hashable, Optional

from repro.bench.stats import LatencyStats

__all__ = ["ClosedLoop", "run_closed_loop"]


class ClosedLoop:
    """Per-label latency statistics and the measured window of one run."""

    def __init__(self, warmup: int, counted: Optional[Container] = None):
        self.warmup = warmup
        self.counted = counted
        self.stats: Dict[Hashable, LatencyStats] = defaultdict(LatencyStats)
        self.start: Optional[float] = None
        self.end = 0.0
        self.ops = 0

    def record(self, k: int, label: Hashable, t0: float,
               t_done: float) -> None:
        """Call ``k`` of one client, labelled ``label``, ran ``t0..t_done``."""
        if k < self.warmup:
            return
        self.stats[label].record(t_done - t0)
        if self.counted is None or label in self.counted:
            if self.start is None:
                self.start = t0
            self.ops += 1
            self.end = max(self.end, t_done)

    @property
    def throughput(self) -> float:
        """Measured ops per second of the measured window."""
        return self.ops / max(self.end - (self.start or 0.0), 1e-12)


def run_closed_loop(sim, client_nodes, n_clients: int, warmup: int,
                    iters: int, connect: Callable, call: Callable,
                    pipelined: bool = False,
                    counted: Optional[Container] = None) -> ClosedLoop:
    """Run the loop to completion and return its :class:`ClosedLoop`.

    ``connect(node, i)`` is a coroutine returning client ``i``'s
    connection; ``call(conn, i, k)`` is a coroutine making its call ``k``
    and returning the call's label.  With ``pipelined``, ``call`` only
    posts the call and returns its
    :class:`~repro.core.runtime.StubCallHandle` (the label is the
    method): a client posts all its calls, then waits on them in order.
    ``counted`` limits the window to the labels it contains.
    """
    loop = ClosedLoop(warmup, counted)

    def client(i: int):
        conn = yield from connect(client_nodes[i % len(client_nodes)], i)
        posted = []
        for k in range(warmup + iters):
            t0 = sim.now
            out = yield from call(conn, i, k)
            if pipelined:
                posted.append((k, t0, out))
            else:
                loop.record(k, out, t0, sim.now)
        for k, t0, h in posted:
            yield from h.wait()
            loop.record(k, h.method, t0, h.handle.t_done)

    procs = [sim.process(client(i), name=f"client-{i}")
             for i in range(n_clients)]
    sim.run()
    for p in procs:
        p.value  # surface a client-side failure instead of undercounting
    return loop
