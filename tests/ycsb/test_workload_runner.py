"""Workload geometry and full YCSB runs over HatKV + comparators."""

import pytest

from repro.bench import PhasedRun
from repro.emul import SYSTEMS, start_system
from repro.sim.units import us
from repro.testbed import Testbed
from repro.ycsb import (OpType, WORKLOAD_A, WORKLOAD_B, Workload,
                        measurement_result, run_ycsb_phased)
from repro.ycsb.workload import BATCH_SIZE, FIELD_COUNT, FIELD_LENGTH, KEY_LENGTH


def _measured(system, spec, n_clients, warmup=50 * us,
              measurement=200 * us):
    """One phased YCSB run on a fresh 5-node testbed; its MEASUREMENT
    phase as a ``YcsbResult``."""
    tb = Testbed(n_nodes=5)
    server, connect = start_system(tb, system, n_clients=n_clients)
    run = PhasedRun(tb.sim, system, warmup=warmup, measurement=measurement)
    run_ycsb_phased(server, connect, spec, testbed=tb, run=run,
                    n_clients=n_clients)
    return measurement_result(run)


def _assert_every_op_kind_measured(result, spec):
    for op, weight in spec.mix:
        if weight > 0:
            assert result.per_op[op].count > 0, op


def test_workload_geometry():
    wl = Workload(WORKLOAD_A, seed=1)
    key = wl.key_of(7)
    assert len(key) == KEY_LENGTH == 24
    assert key.startswith(b"user") and key.endswith(b"7")
    assert len(wl.value()) == FIELD_COUNT * FIELD_LENGTH == 1000


def test_load_items_cover_keyspace():
    wl = Workload(WORKLOAD_A, seed=1)
    items = list(wl.load_items())
    assert len(items) == WORKLOAD_A.record_count
    assert len({k for k, _ in items}) == WORKLOAD_A.record_count


def test_mix_proportions_workload_a():
    wl = Workload(WORKLOAD_A, seed=2)
    from collections import Counter
    counts = Counter(wl.next_op()[0] for _ in range(4000))
    for op, _w in WORKLOAD_A.mix:
        assert 0.2 < counts[op] / 4000 < 0.3, op


def test_mix_proportions_workload_b():
    wl = Workload(WORKLOAD_B, seed=2)
    from collections import Counter
    counts = Counter(wl.next_op()[0] for _ in range(4000))
    assert counts[OpType.GET] / 4000 > 0.4
    assert counts[OpType.PUT] / 4000 < 0.07
    assert counts[OpType.MULTI_GET] / 4000 > 0.4


def test_multi_ops_batched():
    wl = Workload(WORKLOAD_A, seed=3)
    for _ in range(100):
        op, args = wl.next_op()
        if op is OpType.MULTI_GET:
            assert len(args[0]) == BATCH_SIZE
        elif op is OpType.MULTI_PUT:
            keys, values = args
            assert len(keys) == len(values) == BATCH_SIZE
            assert all(len(v) == 1000 for v in values)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_ycsb_runs_on_every_system(system):
    result = _measured(system, WORKLOAD_A, n_clients=4)
    _assert_every_op_kind_measured(result, WORKLOAD_A)
    assert result.throughput_ops > 0


def test_hatkv_function_beats_comparators_workload_b():
    """The headline Fig. 16 ordering at reduced scale.

    Run past the under-subscription threshold (the paper uses 128 clients):
    below it every candidate busy-polls and the orderings blur.
    """
    results = {system: _measured(system, WORKLOAD_B, n_clients=24,
                                 warmup=100 * us).throughput_ops
               for system in ("hatkv_function", "herd", "rfp")}
    assert results["hatkv_function"] > results["rfp"]
    assert results["hatkv_function"] > results["herd"]


def test_ycsb_deterministic():
    def once():
        r = _measured("hatkv_service", WORKLOAD_A, n_clients=4)
        return r.throughput_ops, {op: r.per_op[op].samples for op in OpType}
    assert once() == once()


def test_extended_workloads_cde():
    """Library extension: the remaining standard YCSB mixes."""
    from repro.ycsb import WORKLOAD_C, WORKLOAD_D, WORKLOAD_E
    from collections import Counter
    wl_c = Workload(WORKLOAD_C, seed=1)
    c = Counter(wl_c.next_op()[0] for _ in range(1000))
    assert set(c) == {OpType.GET, OpType.MULTI_GET}
    wl_d = Workload(WORKLOAD_D, seed=1)
    d = Counter(wl_d.next_op()[0] for _ in range(1000))
    assert d[OpType.INSERT] > 0 and d[OpType.GET] > d[OpType.INSERT]
    wl_e = Workload(WORKLOAD_E, seed=1)
    e = Counter(wl_e.next_op()[0] for _ in range(1000))
    assert e[OpType.SCAN] > 800


def test_insert_keys_disjoint_per_client():
    from repro.ycsb import WORKLOAD_D
    a = Workload(WORKLOAD_D, seed=1, insert_start=10_000)
    b = Workload(WORKLOAD_D, seed=2, insert_start=20_000)
    keys_a = set()
    keys_b = set()
    for _ in range(500):
        op, args = a.next_op()
        if op is OpType.INSERT:
            keys_a.add(args[0])
        op, args = b.next_op()
        if op is OpType.INSERT:
            keys_b.add(args[0])
    assert keys_a and keys_b and not (keys_a & keys_b)


def test_latest_distribution_tracks_run_wide_inserts():
    """Regression: 'latest' only advanced on the local client's inserts,
    so with many clients the hot set lagged the true newest insert by a
    factor of the client count.  A shared InsertSequence closes the gap:
    every client's keychooser must be able to reach the global high-water
    mark, not just its own."""
    from repro.ycsb import WORKLOAD_D
    from repro.ycsb.workload import InsertSequence
    seq = InsertSequence(WORKLOAD_D.record_count)
    writer = Workload(WORKLOAD_D, seed=1, insert_seq=seq)
    reader = Workload(WORKLOAD_D, seed=2, insert_seq=seq)
    # The writer inserts; the reader never does (we skip its inserts).
    for _ in range(600):
        writer.next_op()
    assert seq.high_water >= WORKLOAD_D.record_count  # inserts happened
    seen = set()
    sampled = 0
    while sampled < 2000:
        op, args = reader.next_op()
        if op is OpType.GET:
            seen.add(args[0])
            sampled += 1
    newest = Workload.key_of(seq.high_water)
    assert newest in seen, \
        "reader's 'latest' distribution never reached the global newest key"


def test_shared_insert_sequence_claims_disjoint_indices():
    from repro.ycsb import WORKLOAD_D
    from repro.ycsb.workload import InsertSequence
    seq = InsertSequence(1000)
    a = Workload(WORKLOAD_D, seed=1, insert_seq=seq)
    b = Workload(WORKLOAD_D, seed=2, insert_seq=seq)
    keys_a, keys_b = set(), set()
    for _ in range(500):
        op, args = a.next_op()
        if op is OpType.INSERT:
            keys_a.add(args[0])
        op, args = b.next_op()
        if op is OpType.INSERT:
            keys_b.add(args[0])
    assert keys_a and keys_b and not (keys_a & keys_b)
    # contiguous global allocation: nothing skipped below the high-water
    claimed = {int(k[4:].lstrip(b"0") or b"0") for k in keys_a | keys_b}
    assert claimed == set(range(1000, seq.high_water + 1))


def test_scan_workload_end_to_end():
    """Workload E drives LMDB cursors through the full RPC stack."""
    from repro.ycsb import WORKLOAD_E
    r = _measured("hatkv_function", WORKLOAD_E, n_clients=4)
    _assert_every_op_kind_measured(r, WORKLOAD_E)
