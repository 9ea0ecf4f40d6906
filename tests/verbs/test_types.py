"""The verbs value types and the registered-memory window.

``Sge``, ``SendWR``, ``RecvWR`` and ``WC`` are slotted, unfrozen
dataclasses: their fields, defaults, equality and ``repr`` are the
contract, and a receive ring re-posts one ``RecvWR`` per slot.  An ``MR``
holds the segment it was registered over and still faults once that memory
is freed.
"""

import dataclasses

import pytest

from repro.verbs import Memory, MemoryAccessError, RecvWR, Sge
from repro.verbs.types import WC, Opcode, SendWR, WCOpcode, WCStatus


def fields(cls):
    return [(f.name, f.default) for f in dataclasses.fields(cls)]


def test_fields_and_defaults():
    MISSING = dataclasses.MISSING
    assert fields(Sge) == [("addr", MISSING), ("length", MISSING),
                           ("lkey", MISSING)]
    assert fields(SendWR) == [
        ("opcode", MISSING), ("sge", MISSING), ("wr_id", 0),
        ("remote_addr", 0), ("rkey", 0), ("imm", 0), ("signaled", True),
        ("next", None)]
    assert fields(RecvWR) == [("sge", MISSING), ("wr_id", 0)]
    assert fields(WC) == [
        ("wr_id", MISSING), ("opcode", MISSING),
        ("status", WCStatus.SUCCESS), ("byte_len", 0), ("imm", 0),
        ("qp_num", 0), ("addr", 0)]


def test_slotted():
    sge = Sge(0, 8, 1)
    for obj in (sge, SendWR(Opcode.SEND, sge), RecvWR(sge),
                WC(0, WCOpcode.SEND)):
        assert not hasattr(obj, "__dict__")


def test_equality_and_repr():
    sge = Sge(0x40, 64, 0x1000)
    assert sge == Sge(0x40, 64, 0x1000) and sge != Sge(0x40, 65, 0x1000)
    assert repr(sge) == "Sge(addr=64, length=64, lkey=4096)"
    assert repr(RecvWR(sge, wr_id=3)) == (
        "RecvWR(sge=Sge(addr=64, length=64, lkey=4096), wr_id=3)")
    wr = SendWR(Opcode.SEND, sge, wr_id=2)
    assert wr == SendWR(Opcode.SEND, Sge(0x40, 64, 0x1000), wr_id=2)
    assert repr(wr) == (
        "SendWR(opcode=<Opcode.SEND: 'send'>, sge=Sge(addr=64, length=64, "
        "lkey=4096), wr_id=2, remote_addr=0, rkey=0, imm=0, signaled=True, "
        "next=None)")
    wr.next = SendWR(Opcode.SEND, sge)
    assert wr.chain_length() == 2
    wc = WC(5, WCOpcode.RECV, byte_len=9)
    assert wc == WC(5, WCOpcode.RECV, WCStatus.SUCCESS, 9) and wc.ok
    assert not WC(5, WCOpcode.RECV, WCStatus.WR_FLUSH_ERR).ok
    assert repr(wc) == (
        "WC(wr_id=5, opcode=<WCOpcode.RECV: 'recv'>, status=<WCStatus.SUCCESS:"
        " 'success'>, byte_len=9, imm=0, qp_num=0, addr=0)")


def test_mr_reads_and_writes_its_segment(tb):
    nic = tb.node(0).nic
    pd = nic.alloc_pd()
    before = pd.reg_mr(64)
    mr = pd.reg_mr(256)
    mr.write(b"abc", offset=250)
    assert mr.read(3, offset=250) == b"abc"
    assert nic.mem.read(mr.addr + 250, 3) == b"abc"
    assert before.read(64) == bytes(64)
    for bad in (-1, 254):
        with pytest.raises(MemoryAccessError):
            mr.write(b"abc", offset=bad)
        with pytest.raises(MemoryAccessError):
            mr.read(3, offset=bad)


def test_mr_over_an_inner_range_of_an_allocation(tb):
    nic = tb.node(0).nic
    base = nic.mem.alloc(4096)
    mr = nic.alloc_pd().reg_mr(128, addr=base + 1024)
    mr.write(b"xyz", offset=125)
    assert nic.mem.read(base + 1149, 3) == b"xyz"
    with pytest.raises(MemoryAccessError):
        nic.alloc_pd().reg_mr(128, addr=base + 4000)   # past the allocation


def test_mr_over_freed_memory_faults(tb):
    nic = tb.node(0).nic
    mr = nic.alloc_pd().reg_mr(256)
    mr.write(b"payload")
    nic.mem.free(mr.addr)
    with pytest.raises(MemoryAccessError):
        mr.read(7)
    with pytest.raises(MemoryAccessError):
        mr.write(b"again")
    # ... and the allocator's view agrees
    with pytest.raises(MemoryAccessError):
        nic.mem.read(mr.addr, 7)


def test_freed_segment_drops_its_bytes():
    mem = Memory()
    a = mem.alloc(1 << 16)
    seg = mem.segment(a, 1 << 16)
    mem.write(a, bytes(range(256)) * 256)
    mem.free(a)
    assert seg.resident == 0
