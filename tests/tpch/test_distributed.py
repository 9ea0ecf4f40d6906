"""Fig. 17's TPC-H: the engine's distributed plans, the recorded trace, and
its replay over the three RPC modes."""

from importlib import resources

import numpy as np
import pytest

from repro.tpch.distributed import (
    CHUNK, QUERIES, DistributedTpch, _WorkerHandler, load_trace,
)
from tests.tpch.engine.datagen import generate
from tests.tpch.engine.fragments import PLANS
from tests.tpch.engine.queries import run_query
from tests.tpch.engine.ser import deserialize_table, serialize_table
from tests.tpch.engine.table import Table
from tests.tpch.engine.trace import concat, partition, render

MODES = ("ipoib", "hatrpc_service", "hatrpc_function")


def tables_equal(a: Table, b: Table, float_tol=1e-6) -> bool:
    if set(a.names) != set(b.names) or len(a) != len(b):
        return False
    for name in a.names:
        ca, cb = a[name], b[name]
        if ca.dtype.kind == "f" or cb.dtype.kind == "f":
            if not np.allclose(ca.astype(float), cb.astype(float),
                               rtol=float_tol, atol=1e-9):
                return False
        else:
            if ca.tolist() != cb.tolist():
                return False
    return True


def test_serialize_roundtrip():
    t = Table({"a": np.asarray([1, 2, 3], dtype=np.int64),
               "b": np.asarray([1.5, -2.5, 0.0]),
               "c": np.asarray(["x", "y", "unicode ✓"], dtype=object)})
    out = deserialize_table(serialize_table(t))
    assert tables_equal(t, out)


def test_serialize_empty():
    t = Table({"a": np.zeros(0, dtype=np.int64)})
    out = deserialize_table(serialize_table(t))
    assert len(out) == 0 and out.names == ["a"]


@pytest.fixture(scope="module")
def setup():
    db = generate(sf=0.003, seed=3)
    return db, partition(db, 4)


@pytest.mark.parametrize("qn", sorted(PLANS))
def test_fragment_final_equals_single_node(setup, qn):
    """The distributed plan must compute exactly the single-node answer."""
    db, parts = setup
    plan = PLANS[qn]
    # The serialize/merge path the recorded partials took.
    merged = concat([deserialize_table(serialize_table(plan.fragment(p)))
                     for p in parts])
    distributed = plan.final(merged, db)
    single = run_query(db, qn)
    assert tables_equal(distributed, single), f"Q{qn} diverged"


def test_trace_matches_reference_engine():
    """The committed trace is exactly what the engine records today."""
    committed = resources.files("repro.tpch").joinpath(
        "fig17_trace.json").read_text()
    assert render() == committed


def test_exchange_bytes_match_trace_in_every_mode():
    for mode in MODES:
        ex = DistributedTpch(mode=mode, sf=0.005, n_workers=9, seed=1).start()
        for q in (1, 2, 9, 13):
            assert ex.run_query(q).exchange_bytes == ex.trace[q].exchange_bytes


def test_ipoib_slower_than_hatrpc():
    times = {}
    for mode in ("ipoib", "hatrpc_function"):
        ex = DistributedTpch(mode=mode, sf=0.005, n_workers=9, seed=1).start()
        times[mode] = sum(ex.run_query(q).elapsed for q in (1, 6, 9, 13))
    assert times["hatrpc_function"] < times["ipoib"]


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        DistributedTpch(mode="carrier_pigeon")


@pytest.mark.parametrize("sf, seed, n_workers", [
    (0.002, 5, 3),      # never recorded
    (0.005, 0, 9),      # recorded sf and workers, other seed
    (0.01, 1, 8),       # recorded sf and seed, other worker count
    (0.01, 2, 2),       # recorded seed and workers, other sf
])
def test_unrecorded_key_rejected(sf, seed, n_workers):
    with pytest.raises(ValueError, match="no recorded trace") as err:
        DistributedTpch(sf=sf, seed=seed, n_workers=n_workers)
    for key in load_trace():
        assert repr(key) in str(err.value)


def test_unknown_query_rejected():
    ex = DistributedTpch().start()
    with pytest.raises(KeyError):
        ex.run_query(23)
    assert sorted(ex.trace) == list(QUERIES)


def test_chunked_transfer_for_large_partials():
    """Q20's partials at (0.02, 2, 2) span two chunks; the coordinator
    checks every reassembled byte."""
    ex = DistributedTpch(mode="hatrpc_service", sf=0.02, n_workers=2,
                         seed=2).start()
    assert min(ex.trace[20].partial_len) > CHUNK
    r = ex.run_query(20)
    assert r.exchange_bytes == ex.trace[20].exchange_bytes


def test_corrupted_chunk_detected(monkeypatch):
    pull = _WorkerHandler.PullChunk

    def flip_first_byte(self, query, offset):
        chunk = yield from pull(self, query, offset)
        return bytes([chunk[0] ^ 1]) + chunk[1:] if chunk else chunk

    monkeypatch.setattr(_WorkerHandler, "PullChunk", flip_first_byte)
    ex = DistributedTpch(mode="hatrpc_service", sf=0.02, n_workers=2,
                         seed=2).start()
    ex.run_query(1)     # one chunk per partial: no PullChunk carries data
    with pytest.raises(RuntimeError,
                       match=r"Q20: worker \d's partial arrived corrupted"):
        ex.run_query(20)
