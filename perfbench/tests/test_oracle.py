"""The reply oracle, and that a wrong reply reaches the exit code."""

import json

from perfbench.__main__ import main
from perfbench.oracle import KVOracle
from perfbench import workloads


def test_single_client_reads_see_the_last_acknowledged_write():
    o = KVOracle({b"k": b"v0"})
    assert o.check_read(b"k", b"v0", 0.0, 1.0)
    assert not o.check_read(b"k", None, 0.0, 1.0)       # reported absent
    assert not o.check_read(b"missing", b"", 0.0, 1.0)
    w = o.begin_write(b"k", b"v1", 2.0)
    o.end_write(w, 3.0)
    assert o.check_read(b"k", b"v1", 4.0, 5.0)
    assert not o.check_read(b"k", b"v0", 4.0, 5.0)      # stale
    assert not o.check_read(b"k", b"v2", 4.0, 5.0)      # never written


def test_concurrent_writes_admit_either_order():
    o = KVOracle({b"k": b"v0"})
    w1 = o.begin_write(b"k", b"v1", 1.0)
    w2 = o.begin_write(b"k", b"v2", 1.5)
    # A read overlapping both writes may see the old value or either write.
    for value in (b"v0", b"v1", b"v2"):
        assert o.check_read(b"k", value, 1.2, 2.5)
    o.end_write(w1, 2.0)
    o.end_write(w2, 3.0)
    # Both overlapped, so the store decided their order: either may stand.
    assert o.check_read(b"k", b"v1", 4.0, 5.0)
    assert o.check_read(b"k", b"v2", 4.0, 5.0)
    assert not o.check_read(b"k", b"v0", 4.0, 5.0)
    w3 = o.begin_write(b"k", b"v3", 6.0)
    o.end_write(w3, 7.0)
    assert not o.check_read(b"k", b"v1", 8.0, 9.0)      # now superseded
    assert o.written_keys() == [b"k"]


def test_one_corrupted_reply_fails_the_run(monkeypatch, capsys):
    calls = {}

    def echo_with_one_flip(self, payload):
        calls[id(self)] = calls.get(id(self), 0) + 1
        if calls[id(self)] == 40:
            return bytes([payload[0] ^ 1]) + payload[1:]
        return payload

    monkeypatch.setattr(workloads.EchoService, "Echo", echo_with_one_flip)
    rc = main(["one", "--workload", "atb_small", "--scale", "0.02",
               "--seconds", "0"])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc != 0
    assert doc["failed"] >= 1
    assert doc["metrics"]["fail_share"]["value"] > 0
    assert "wrong reply to Echo" in doc["first_error"]
