"""Fault recovery under load: YCSB-A over HatKV through a mid-run link flap.

Eight clients run a 50/50 read/update mix against one HatKV server while the
server's fabric port goes hard-down for a window in the middle of the run.
Reads (idempotent) are retried inside the engine; failed updates surface to
the application, which re-issues them under a fresh seqid -- the engine
never blind-retries a write.  Reported per phase (before / during / after
the flap): op count, p50 and p99 latency; plus the engine's fault counters.

Acceptance properties asserted here:

* every operation eventually succeeds (100% success rate);
* zero blind retries of non-idempotent ops (no ``retry`` trace entry for a
  write function);
* two runs with the same seed replay byte-identical fault traces.
"""

import random

from benchmarks.figutil import fmt_rows, is_full, usec
from repro.core.resilience import RetryPolicy
from repro.faults import FaultInjector, FaultPlan, LinkFlap
from repro.hatkv import HatKVServer, connect_hatkv, load_hatkv_module
from repro.sim.units import ms, us
from repro.testbed import Testbed
from repro.thrift.errors import TTransportException

SEED = 42
N_CLIENTS = 12 if is_full() else 8
OPS_PER_CLIENT = 60 if is_full() else 40
KEYS = 64
VALUE = b"x" * 100
THINK_TIME = 100 * us
FLAP_START = 2.5 * ms
FLAP_DURATION = 1.0 * ms
WRITE_FRACTION = 0.5          # YCSB-A
MAX_REISSUES = 50
PHASES = ("before", "during", "after")

WRITE_FNS = ("Put", "MultiPut")


def _key(i: int) -> bytes:
    return f"key-{i}".encode().ljust(24, b"0")


def _phase(t: float) -> str:
    if t < FLAP_START:
        return "before"
    if t < FLAP_START + FLAP_DURATION:
        return "during"
    return "after"


def _run_once(seed: int):
    tb = Testbed(n_nodes=3)
    gen = load_hatkv_module(variant="function", concurrency=N_CLIENTS)
    HatKVServer(tb.node(0), gen, concurrency=N_CLIENTS).start()
    FaultInjector(tb, FaultPlan(seed=seed, events=(
        LinkFlap("node0", start=FLAP_START, duration=FLAP_DURATION),
    ))).arm()

    # Preload the keyspace before measurement starts.
    def load():
        stub = yield from connect_hatkv(tb.node(1), tb.node(0), gen,
                                        concurrency=N_CLIENTS)
        yield from stub.MultiPut([_key(i) for i in range(KEYS)],
                                 [VALUE] * KEYS)
        stub._hatrpc.close()

    tb.sim.run(tb.sim.process(load()))

    results = []     # (t0, latency, ok, is_write, reissues)
    engines = []

    def client(cid: int):
        stub = yield from connect_hatkv(
            tb.node(1 + cid % 2), tb.node(0), gen,
            concurrency=N_CLIENTS, deadline=2 * ms,
            retry_policy=RetryPolicy(max_attempts=5),
            rng=random.Random(seed * 1000 + cid))
        engines.append(stub._hatrpc.engine)
        rng = random.Random(seed * 7777 + cid)
        for _ in range(OPS_PER_CLIENT):
            key = _key(rng.randrange(KEYS))
            is_write = rng.random() < WRITE_FRACTION
            t0 = tb.sim.now
            reissues = 0
            ok = False
            while True:
                try:
                    if is_write:
                        yield from stub.Put(key, VALUE)
                    else:
                        yield from stub.Get(key)
                    ok = True
                    break
                except TTransportException:
                    # Engine-level recovery is exhausted for this call; the
                    # application re-issues (a fresh stub call = a fresh
                    # seqid, so this is not a blind retry) after a pause.
                    reissues += 1
                    if reissues > MAX_REISSUES:
                        break
                    yield tb.sim.timeout(THINK_TIME)
            results.append((t0, tb.sim.now - t0, ok, is_write, reissues))
            yield tb.sim.timeout(THINK_TIME)

    procs = [tb.sim.process(client(c)) for c in range(N_CLIENTS)]
    tb.sim.run()
    for p in procs:
        p.value              # surface any unexpected client failure
    traces = [e.fault_trace for e in engines]
    return results, engines, traces


def _p(lats, q):
    s = sorted(lats)
    return s[min(int(q * (len(s) - 1)), len(s) - 1)] if s else float("nan")


def test_fault_recovery_ycsb_a(benchmark):
    (results, engines, traces), (results2, _eng2, traces2) = \
        benchmark.pedantic(lambda: (_run_once(SEED), _run_once(SEED)),
                           rounds=1, iterations=1)

    by_phase = {ph: [] for ph in PHASES}
    for t0, lat, ok, _w, _r in results:
        by_phase[_phase(t0)].append(lat)
    rows = [[ph, str(len(by_phase[ph])),
             usec(_p(by_phase[ph], 0.50)), usec(_p(by_phase[ph], 0.99))]
            for ph in PHASES]
    fmt_rows(f"YCSB-A through a {FLAP_DURATION * 1e3:.1f}ms link flap "
             f"({N_CLIENTS} clients)",
             ["phase", "ops", "p50", "p99"], rows)

    totals = {}
    for e in engines:
        for k, v in e.faults.as_dict().items():
            totals[k] = totals.get(k, 0) + v
    reissues = sum(r for *_x, r in results)
    fmt_rows("engine fault counters (all clients) + app re-issues",
             ["counter", "value"],
             [[k, str(v)] for k, v in sorted(totals.items())]
             + [["app_reissues", str(reissues)]])
    benchmark.extra_info["fault_counters"] = totals
    benchmark.extra_info["app_reissues"] = reissues

    # Every phase saw traffic, and the flap actually hurt.
    assert all(by_phase[ph] for ph in PHASES)
    assert _p(by_phase["during"], 0.99) > _p(by_phase["before"], 0.99)

    # 100% of ops (idempotent and re-issued writes alike) succeeded.
    assert all(ok for _t, _l, ok, _w, _r in results)
    # The engine did recover work: retries and reconnects happened.
    assert totals["retries"] >= 1
    assert totals["reconnects"] >= 1
    # Zero blind retries of non-idempotent ops: the engine refused them
    # (counter) and never emitted a retry trace entry for a write.
    assert totals["blind_retries_prevented"] >= 1
    for trace in traces:
        assert not any(kind == "retry" and fn in WRITE_FNS
                       for _t, kind, fn, _c, _d in trace)

    # Determinism: an identical seed replays identical retry/failover
    # traces and identical per-op results.
    assert traces == traces2
    assert results == results2
