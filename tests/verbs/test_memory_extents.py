"""The sparse (extent-backed) segment store of ``verbs/memory.py``.

A flat ``bytearray`` is the reference: whatever sequence of overlapping,
adjacent and gap-spanning writes is applied -- host writes, the pieces a
gather on one segment hands to a write on another (or the same) one, and
discards (releases, which zero the reference) -- every read must return the
reference's bytes, and the extent invariants of the module docstring must
hold after every write and discard.  The regression tests pin what
the sparse backing is for: resident bytes follow the bytes written, not the
highest offset; and what slice extents are for: the NIC moves objects, not
copies of them.
"""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.verbs import Memory, MemoryAccessError, memory
from repro.verbs.memory import Slice, _Segment

SEG = 512


def check_extents(seg):
    """Sorted, non-empty, non-overlapping (they may touch); a slice lies
    inside its object, is not all of it, and does not continue the slice
    before it."""
    assert len(seg._starts) == len(seg._bufs)
    prev_end, prev = 0, None
    for start, buf in zip(seg._starts, seg._bufs):
        assert type(buf) in (bytes, Slice) and len(buf) > 0
        if type(buf) is Slice:
            assert type(buf.obj) is bytes
            assert 0 <= buf.lo < buf.hi <= len(buf.obj)
            assert (buf.lo, buf.hi) != (0, len(buf.obj)), "whole-object slice"
            assert not (type(prev) is Slice and prev.obj is buf.obj
                        and prev.hi == buf.lo and prev_end == start), \
                "coalescible neighbours"
        assert start >= prev_end, (seg._starts, [len(b) for b in seg._bufs])
        prev_end, prev = start + len(buf), buf
    assert prev_end <= seg.size


write_op = st.tuples(st.just("w"), st.integers(0, 1), st.integers(0, SEG - 1),
                     st.binary(min_size=0, max_size=96))
read_op = st.tuples(st.just("r"), st.integers(0, 1), st.integers(0, SEG - 1),
                    st.integers(0, SEG))
#: gather (segment, offset) and write the pieces at (segment, offset, length)
move_op = st.tuples(st.just("m"), st.integers(0, 1), st.integers(0, SEG - 1),
                    st.tuples(st.integers(0, 1), st.integers(0, SEG - 1),
                              st.integers(0, SEG)))
discard_op = st.tuples(st.just("d"), st.integers(0, 1),
                       st.integers(0, SEG - 1), st.integers(0, SEG))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(write_op, read_op, move_op, discard_op),
                min_size=1, max_size=40),
       st.sampled_from([1, 24, memory._SLICE_MIN]))
def test_segment_matches_flat_reference(ops, slice_min):
    """``slice_min`` scales the remainder rule down to this segment, so
    that remainders are kept as slices as well as copied."""
    with mock.patch.object(memory, "_SLICE_MIN", slice_min):
        _apply_against_flat_reference(ops)


def _apply_against_flat_reference(ops):
    segs = [_Segment(0, SEG), _Segment(0, SEG)]
    flats = [bytearray(SEG), bytearray(SEG)]
    written = [bytearray(SEG), bytearray(SEG)]  # 1 where a byte was written
    for kind, which, off, arg in ops:
        if kind == "r":
            length = min(arg, SEG - off)
            got = segs[which].read(off, length)
            assert type(got) is bytes
            assert got == bytes(flats[which][off:off + length])
            continue
        if kind == "d":
            length = min(arg, SEG - off)
            segs[which].discard(off, length)
            flats[which][off:off + length] = bytes(length)
            written[which][off:off + length] = bytes(length)
            check_extents(segs[which])
            # a released byte no longer counts
            assert segs[which].resident == sum(written[which])
            continue
        if kind == "w":
            dst, at, data = which, off, arg[:SEG - off]
            payload = data
        else:                       # which/off: the source; may be dst too
            dst, at, length = arg
            length = min(length, SEG - off, SEG - at)
            data = segs[which].gather(off, length)
            payload = bytes(flats[which][off:off + length])
            pieces = data if type(data) is list else [data]
            assert b"".join(map(bytes, pieces)) == payload
        segs[dst].write(at, data)
        flats[dst][at:at + len(payload)] = payload
        written[dst][at:at + len(payload)] = b"\x01" * len(payload)
        check_extents(segs[dst])
        # resident bytes are exactly the bytes written and not released
        assert segs[dst].resident == sum(written[dst])
    for seg, flat in zip(segs, flats):
        assert seg.read(0, SEG) == bytes(flat)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 200),
                          st.binary(min_size=1, max_size=120)),
                min_size=1, max_size=30))
def test_memory_matches_flat_reference_across_segments(writes):
    """Through the public API: several allocations, one freed midway."""
    mem = Memory()
    sizes = (64, 200, 320, 100)
    addrs = [mem.alloc(n) for n in sizes]
    flats = [bytearray(n) for n in sizes]
    for k, (which, off, payload) in enumerate(writes):
        if k == len(writes) // 2 and addrs[1] is not None:
            mem.free(addrs[1])
            addrs[1] = None
        off %= sizes[which]
        payload = payload[:sizes[which] - off]
        if addrs[which] is None:
            with pytest.raises(MemoryAccessError):
                mem.write(addrs[0] + 64 + off, payload)     # the freed hole
            continue
        mem.write(addrs[which] + off, payload)
        flats[which][off:off + len(payload)] = payload
    for addr, flat in zip(addrs, flats):
        if addr is not None:
            assert mem.read(addr, len(flat)) == bytes(flat)
    live = [n for n, a in zip(sizes, addrs) if a is not None]
    assert mem.live_bytes == sum(live)
    assert mem.resident_bytes <= sum(live)


def test_write_copies_its_payload():
    """A source that is not exactly ``bytes`` is snapshotted at the write."""
    seg = _Segment(0, 64)
    src = bytearray(b"abcd")
    seg.write(8, src)
    src[:] = b"WXYZ"
    assert seg.read(8, 4) == b"abcd"
    out = seg.read(8, 4)
    seg.write(8, b"1234")
    assert out == b"abcd"
    view = memoryview(src)
    seg.write(20, view[1:3])
    src[:] = b"...."
    assert seg.read(20, 2) == b"XY" and type(seg.read(20, 2)) is bytes
    assert seg.read(8, 14) == b"1234" + bytes(8) + b"XY"


def test_bytes_written_whole_is_read_back_as_the_same_object():
    """``is``, not ``==``: an immutable payload travels by reference."""
    mem = Memory()
    addr = mem.alloc(4096)
    payload = bytes(range(256)) * 4
    mem.write(addr + 64, payload)
    assert mem.read(addr + 64, len(payload)) is payload
    assert mem.read(addr + 64, len(payload) - 1) == payload[:-1]
    mem.write(addr, b"h" * 64)          # a touching neighbour: still by ref
    assert mem.read(addr + 64, len(payload)) is payload
    assert mem.read(addr, 64 + len(payload)) == b"h" * 64 + payload


def test_send_between_two_devices_delivers_the_same_object(pair):
    """staging.write -> NIC mem.read(sge) -> rdev.mem.write: one object
    crosses both NICs without a host copy."""
    from repro.verbs import Opcode, SendWR, Sge
    from repro.verbs.cq import PollMode

    payload = bytes(range(251)) * 521           # ~128 KiB
    dst = pair.server_recv_buf(len(payload))
    src = pair.cpd.reg_mr(1 << 20)

    def flow():
        src.write(payload, offset=128)
        yield from pair.cqp.post_send(SendWR(
            Opcode.SEND, Sge(src.addr + 128, len(payload), src.lkey)))
        yield from pair.s_rcq.wait(PollMode.BUSY)

    pair.tb.sim.run(pair.tb.sim.process(flow()))
    assert dst.read(len(payload)) is payload


def test_write_and_read_move_every_extent_of_the_sge(pair):
    """A WRITE whose SGE holds two extents lands both objects at the
    responder, and a READ of one of them brings that object back: the NIC
    gathers and scatters, it never joins."""
    from repro.verbs import Opcode, SendWR, Sge
    from repro.verbs.cq import PollMode

    hdr, payload = b"h" * 32, bytes(range(251)) * 521
    src = pair.cpd.reg_mr(1 << 20)
    back = pair.cpd.reg_mr(1 << 20)
    dst = pair.spd.reg_mr(1 << 20)

    def flow():
        src.write(hdr)
        src.write(payload, offset=32)
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_WRITE, Sge(src.addr, 32 + len(payload), src.lkey),
            remote_addr=dst.addr, rkey=dst.rkey))
        yield from pair.c_scq.wait(PollMode.BUSY)
        yield from pair.cqp.post_send(SendWR(
            Opcode.RDMA_READ, Sge(back.addr + 64, len(payload), back.lkey),
            remote_addr=dst.addr + 32, rkey=dst.rkey))
        yield from pair.c_scq.wait(PollMode.BUSY)

    pair.tb.sim.run(pair.tb.sim.process(flow()))
    assert dst.read(32) is hdr
    assert dst.read(len(payload), offset=32) is payload
    assert back.read(len(payload), offset=64) is payload


def test_trimmed_remainder_does_not_keep_its_parent_alive():
    seg = _Segment(0, 2 << 20)
    big = bytes(1 << 20)
    baseline = sys.getrefcount(big)
    seg.write(0, big)
    assert sys.getrefcount(big) == baseline + 1
    seg.write(0, b"x" * ((1 << 20) - 1))        # one byte shorter
    assert sys.getrefcount(big) == baseline
    assert seg.read((1 << 20) - 2, 3) == b"x\0\0"
    assert seg.resident == 1 << 20


def test_trimmed_slice_remainder_does_not_keep_its_object_alive():
    """A slice extent (moved in by a gather) trimmed to less than half of
    its object is copied out, and the object is released."""
    src, dst = _Segment(0, 2 << 20), _Segment(0, 2 << 20)
    big = bytes(range(256)) * 4096                  # 1 MiB
    baseline = sys.getrefcount(big)
    src.write(0, big)
    dst.write(64, src.gather(0, 600_000))           # a slice of big
    src.write(0, b"y" * (1 << 20))
    assert type(dst._bufs[0]) is Slice and dst._bufs[0].obj is big
    assert sys.getrefcount(big) == baseline + 1
    dst.write(64, b"x" * 599_990)                   # leaves 10 of its bytes
    assert sys.getrefcount(big) == baseline
    assert dst.read(64 + 599_990, 10) == big[599_990:600_000]
    check_extents(dst)


def test_gather_hands_out_the_extent_a_slice_or_pieces():
    seg = _Segment(0, 4096)
    hdr, body = b"h" * 32, bytes(range(256)) * 8
    seg.write(32, body)
    seg.write(0, hdr)
    assert seg.gather(32, len(body)) is body        # one whole extent
    part = seg.gather(40, 100)                      # inside one extent
    assert type(part) is Slice and part.obj is body
    assert (part.lo, part.hi) == (8, 108)
    pieces = seg.gather(0, 32 + len(body) + 10)     # across, past the end
    assert pieces[0] is hdr and pieces[1] is body
    assert pieces[2] == bytes(10)
    assert seg.gather(100, 0) == b""


def test_two_reads_of_one_reply_land_the_reply_object():
    """RFP's fetch: a speculative READ of the header + the reply's first
    4 KiB, then a READ of the tail.  The two slices coalesce back into the
    server's reply object; the previous reply, which the speculative READ
    trimmed, is neither copied nor kept alive."""
    respbuf, fetch = _Segment(0, 1 << 18), _Segment(0, 1 << 18)
    replies = [bytes([k]) * (130_000 - 2_000 * k) for k in range(3)]
    for k, reply in enumerate(replies):
        respbuf.write(32, reply)
        respbuf.write(0, bytes([k]) * 32)
        fetch.write(0, respbuf.gather(0, 32 + 4096))
        check_extents(fetch)
        if k:                   # the previous reply's tail: trimmed, by ref
            assert fetch._starts[2] == 32 + 4096
            assert fetch._bufs[2].obj is replies[k - 1]
        fetch.write(32 + 4096, respbuf.gather(32 + 4096, len(reply) - 4096))
        check_extents(fetch)
        assert fetch.read(32, len(reply)) is reply
        if k:
            previous = replies[k - 1]
            # held by ``replies`` and ``previous`` (+1, the call's argument)
            assert sys.getrefcount(previous) == 3
            del previous


@pytest.mark.parametrize("seed", range(5))
def test_one_slot_rewritten_10000_times_stays_a_short_staircase(seed):
    """Every message of a ring slot starts at the slot's offset; shorter ones
    leave tail remainders of longer predecessors, each later write swallows
    all it covers -- the extents never pile up."""
    import random
    rng = random.Random(seed)
    seg = _Segment(0, 1 << 16)
    flat = bytearray(1 << 16)
    high = 0
    for k in range(10_000):
        n = rng.randrange(1, 18464)
        msg = bytes([k % 251]) * n
        seg.write(4096, msg)
        flat[4096:4096 + n] = msg
        high = max(high, n)
        assert len(seg._starts) <= 64
    check_extents(seg)
    assert seg.resident == high
    assert seg.read(0, 1 << 16) == bytes(flat)


def test_read_spanning_extent_gap_extent_tail_at_every_boundary():
    seg = _Segment(0, 128)
    flat = bytearray(128)
    for off, data in ((8, b"a" * 16), (24, b"b" * 8), (40, b"c" * 24)):
        seg.write(off, data)                    # 8..24 | 24..32 | gap | 40..64
        flat[off:off + len(data)] = data
    assert seg._starts == [8, 24, 40]
    edges = (0, 8, 24, 32, 40, 64, 128)
    points = sorted({p for e in edges for p in (e - 1, e, e + 1)
                     if 0 <= p <= 128})
    for lo in points:
        for hi in points:
            if lo <= hi:
                got = seg.read(lo, hi - lo)
                assert type(got) is bytes
                assert got == bytes(flat[lo:hi]), (lo, hi)


def test_large_read_is_exact_and_leaves_the_extent_resizable():
    """A read hands out ``bytes`` (never a view into an extent), so a later
    write next to or over the extent it came from cannot be blocked by it."""
    seg = _Segment(0, 1 << 16)
    data = bytes(range(256)) * 40                   # 10 240 B
    seg.write(100, data)
    got = seg.read(164, 8192)
    assert type(got) is bytes and got == data[64:64 + 8192]
    seg.write(100 + len(data), b"more")             # grows the same extent
    assert seg.read(100, len(data) + 4) == data + b"more"
    assert seg.read(0, 12000) == bytes(100) + data + b"more" + bytes(1656)


def test_ring_slot_pattern_grows_in_place():
    """Every message of slot k starts at k * stride: the current message is
    one extent, followed by what is left of its longest predecessor."""
    stride, slots = 96, 6
    seg = _Segment(0, stride * slots)
    for size in (10, 40, 25, 95, 1):
        for k in range(slots):
            seg.write(k * stride, bytes([k + 1]) * size)
            assert seg.read(k * stride, size) == bytes([k + 1]) * size
    assert seg._starts == [k * stride + d for k in range(slots)
                           for d in (0, 1)]
    assert [len(b) for b in seg._bufs] == [1, 94] * slots


def test_payload_then_header_becomes_one_extent():
    """The RFP response buffer is written payload first, header second: two
    touching extents (each held by reference); a host read of both at once
    joins them in one copy."""
    seg = _Segment(0, 4096)
    seg.write(32, b"p" * 1000)
    seg.write(0, b"h" * 32)
    assert seg._starts == [0, 32]
    assert [len(b) for b in seg._bufs] == [32, 1000]
    assert seg.read(0, 1032) == b"h" * 32 + b"p" * 1000
    # reading past what was written pads with zeros
    assert seg.read(1000, 100) == b"p" * 32 + bytes(68)


def test_write_spanning_several_extents_fuses_them():
    seg = _Segment(0, 256)
    for off in (10, 30, 50, 200):
        seg.write(off, b"x" * 5)
    seg.write(12, b"y" * 40)            # into #1, over #2, into #3
    assert seg._starts == [10, 12, 52, 200]     # head, payload, tail; #2 gone
    assert [len(b) for b in seg._bufs] == [2, 40, 3, 5]
    assert seg.read(10, 45) == b"xx" + b"y" * 40 + b"xxx"
    check_extents(seg)
    seg.write(55, b"z" * 145)           # fills the gap exactly: touches both
    assert seg._starts == [10, 12, 52, 55, 200]
    assert seg.read(0, 256) == (bytes(10) + b"xx" + b"y" * 40 + b"xxx"
                                + b"z" * 145 + b"x" * 5 + bytes(51))


def test_message_ring_resident_bytes_follow_bytes_written():
    """perfbench's YCSB geometry: 48 slots x (32 B header + 18 432 B), 1 KiB
    messages.  A dense high-water backing held ~596 KB of the 886 KB ring."""
    stride, slots, msg = 18464, 48, 1024
    mem = Memory()
    ring = mem.alloc(stride * slots)
    for seq in range(3 * slots):                  # the window wraps twice
        mem.write(ring + (seq % slots) * stride, bytes([seq % 251]) * msg)
    written = slots * msg                          # distinct bytes written
    assert mem.live_bytes == stride * slots
    assert written <= mem.resident_bytes <= 2 * written
    last = 3 * slots - 1
    assert mem.read(ring + (last % slots) * stride, msg) == \
        bytes([last % 251]) * msg


def test_tail_write_costs_only_its_payload():
    mem = Memory()
    addr = mem.alloc(1 << 20)
    mem.write(addr + (1 << 20) - 4, b"tail")
    assert mem.resident_bytes == 4
    assert mem.read(addr + (1 << 20) - 8, 8) == bytes(4) + b"tail"
    assert mem.read(addr, 16) == bytes(16)
    assert mem.resident_bytes == 4                 # reads materialise nothing


def test_idle_registered_pool_holds_no_host_ram():
    mem = Memory()
    for _ in range(512):
        mem.alloc(512 * 1024)
    assert mem.live_bytes == 512 * 512 * 1024
    assert mem.resident_bytes == 0


def test_allocator_free_keeps_lookups_exact():
    """Append-on-alloc / bisect-delete-on-free: neighbours of a freed
    segment stay reachable, the hole is not, and accesses may not straddle."""
    mem = Memory()
    addrs = [mem.alloc(100) for _ in range(50)]
    for a in addrs[::3]:
        mem.free(a)
    for k, a in enumerate(addrs):
        if k % 3 == 0:
            with pytest.raises(MemoryAccessError):
                mem.read(a, 1)
            with pytest.raises(MemoryAccessError):
                mem.free(a)
        else:
            mem.write(a, bytes([k]) * 100)
            assert mem.read(a + 99, 1) == bytes([k])
            with pytest.raises(MemoryAccessError):
                mem.read(a + 99, 2)
    with pytest.raises(MemoryAccessError):
        mem.read(addrs[-1] + 128, 1)              # past the last segment
    with pytest.raises(MemoryAccessError):
        mem.read(addrs[1], -1)
    later = mem.alloc(10)
    assert later > addrs[-1]
    mem.fill(later, 10, 7)
    assert mem.read(later, 10) == b"\x07" * 10


def test_whole_slot_discard_keeps_the_other_extents_as_they_are():
    """A ring of varying-size messages (each slot a staircase of a message
    and the tail remainder of a longer predecessor): releasing one whole
    slot drops exactly its extents and creates no new object -- every extent
    left is one that was there before."""
    stride, slots = 9000, 4
    seg = _Segment(0, stride * slots)
    for size in (8000, 100, 5000, 30):
        for k in range(slots):
            seg.write(k * stride, bytes([k + 1]) * (size + k))
    before = {id(b): b for b in seg._bufs}
    held = seg.resident
    in_slot = sum(len(b) for s_, b in zip(seg._starts, seg._bufs)
                  if stride <= s_ < 2 * stride)
    seg.discard(stride, stride)
    check_extents(seg)
    assert all(before.get(id(b)) is b for b in seg._bufs)
    assert not any(stride <= s_ < 2 * stride for s_ in seg._starts)
    assert seg.resident == held - in_slot
    assert seg.read(stride, stride) == bytes(stride)
    assert seg.read(0, 30) == b"\x01" * 30
    assert seg.read(2 * stride, 32) == b"\x03" * 32


def test_discard_through_memory_and_mr(pair):
    """``Memory.discard`` and ``MR.discard`` release a range; the released
    bytes read as zeros and no longer count as resident.  A freed segment
    faults on a discard as on any access, and an MR bounds a discard."""
    mem = pair.tb.node(0).nic.mem
    mr = pair.cpd.reg_mr(256)
    mr.write(b"a" * 64)
    mr.write(b"b" * 64, offset=128)
    resident = mem.resident_bytes
    mr.discard(64, offset=128)
    assert mem.resident_bytes == resident - 64
    assert mr.read(256) == b"a" * 64 + bytes(192)
    mem.discard(mr.addr, 64)
    assert mem.resident_bytes == resident - 128
    assert mr.read(64) == bytes(64)
    mr.discard(0)                                   # nothing: a no-op
    for n, offset in ((257, 0), (1, 256), (-1, 0), (8, -1)):
        with pytest.raises(MemoryAccessError):
            mr.discard(n, offset=offset)
    addr = mem.alloc(64)
    mem.free(addr)
    with pytest.raises(MemoryAccessError):
        mem.discard(addr, 8)


def test_mr_write_bounds_a_piece_list_by_its_bytes(pair):
    """A list of pieces is as long as its bytes, not as its pieces: a
    64-byte piece does not fit a 16-byte region."""
    mr = pair.cpd.reg_mr(16)
    with pytest.raises(MemoryAccessError):
        mr.write([b"x" * 64])
    with pytest.raises(MemoryAccessError):
        mr.write([b"x" * 8, b"y" * 8], offset=1)
    mr.write([b"x" * 8, b"y" * 8])
    assert mr.read(16) == b"x" * 8 + b"y" * 8
