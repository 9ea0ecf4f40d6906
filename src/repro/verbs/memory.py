"""Flat per-node virtual memory with a segment allocator.

Memory regions (MRs) are windows over this space; RDMA ops move real bytes
between nodes' Memory objects, so payload contents survive end-to-end --
which lets the upper layers (Thrift serialization, HatKV) be tested for
actual data correctness, not just timing.

Each allocation is a *segment* backed sparsely: it holds only the bytes that
were written and not yet released, as *extents* keyed by the offset they
were written at (reads of anything else return zeros, like freshly mapped
pages).  Host RAM therefore follows the messages still in use, not the
highest offset written: a 48-slot x 18 KiB message ring holds a 1 KiB
message only from its write until its reader releases the slot, and 512
pre-registered-but-idle connections hold nothing -- pre-registered buffers
are the scaling cost of real RDMA endpoints (RDMAvisor), a model of them must
not pay it in host RAM too.  Nor do their pre-posted receives: a posted slot
is a slot number in its queue (``verbs/qp.py``), not a work-request object.

An extent is an immutable ``bytes`` object, or a :class:`Slice` -- bytes
``[lo, hi)`` of one, held by reference.  Payloads move **by reference**:

* a write is one splice: the extents that ``[off, end)`` intersects are
  replaced by (what is left of the first before ``off``) + the written
  extents + (what is left of the last from ``end``).  It adopts ``bytes``
  and slices as they are; anything else (``bytearray``, ``memoryview``) is
  snapshotted once, so later mutation of the source cannot reach registered
  memory;
* :meth:`Memory.gather` hands out the pieces covering a range without
  copying: the extent itself when the range is exactly one extent (the
  small-message case: no list, no new object), a slice when the range is
  inside one extent, otherwise a list of extents, slices and ``bytes`` zero
  gaps.  A write takes that list as it is, so where the model says "the NIC
  moved it" -- a WRITE, SEND or READ (``verbs/qp.py``) -- the sender's
  objects land in the receiver's memory and the NIC never joins;
* a slice that lands right after a slice of the same object, at the
  contiguous offset, *coalesces* with it, and a slice that covers its whole
  object is stored as that object: RFP's speculative READ and its tail READ
  (``protocols/serverbypass.py``) land the server's reply object again;
* :meth:`Memory.read` returns ``bytes``: the extent itself when the range is
  exactly one whole-object extent, one copy otherwise (a slice, or a join);
* :meth:`Memory.discard` *releases* a range: the write splice with nothing
  inserted.  The protocols release a whole slot once nobody reads it before
  it is rewritten -- a source slot once the NIC has gathered it, a sink slot
  once the CPU has read the message out -- so a release cuts no extent and
  copies nothing, and the message is freed as soon as the sender's and the
  receiver's references are gone.

What is left of a partly overwritten extent (the *remainder*) stays a slice
when it is at least half of its object and ``_SLICE_MIN`` bytes, and is
copied otherwise.  A kept remainder holds at least half of its object, so it
keeps alive at most twice its own bytes (a 64 KiB half of a 128 KiB message
keeps all 128 KiB), and a 3-byte tail never pins a 1 MiB message; the
124 KiB of the previous reply that RFP's 4 KiB speculative READ trims is
not copied only to be overwritten by the tail READ.

Extent invariants (checked by ``tests/verbs/test_memory_extents.py``):
``_starts`` is sorted and ``_bufs[i]`` holds the bytes at
``[_starts[i], _starts[i] + len(_bufs[i]))``; extents do not overlap and none
is empty; a slice lies inside its object, is not all of it, and does not
continue the slice before it (two such neighbours are one extent).  Extents
may touch: an RFP response buffer written payload first, header second is
two extents.  A ring slot rewritten with varying message sizes
(``protocols/directwrite.py``: every message of slot *k* starts at
``k * stride``) keeps the tail remainders of longer predecessors behind the
current message -- a descending staircase of a few extents per slot, however
many messages pass (each write swallows every extent it covers).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Union

from repro.verbs.errors import MemoryAccessError

__all__ = ["Memory", "Slice"]

_ALIGN = 64  # cache-line alignment for all allocations
#: A remainder shorter than this is copied: a copy that small is cheaper
#: than a Slice object and the Python-level ``len`` calls it costs later.
_SLICE_MIN = 4096


class Slice:
    """Bytes ``[lo, hi)`` of the immutable ``obj``, by reference."""

    __slots__ = ("obj", "lo", "hi")

    def __init__(self, obj: bytes, lo: int, hi: int):
        self.obj = obj
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __bytes__(self) -> bytes:
        return self.obj[self.lo:self.hi]


Extent = Union[bytes, Slice]


def _extent(obj: bytes, lo: int, hi: int) -> Extent:
    """``obj[lo:hi]`` as an extent: ``obj`` itself when that is all of it."""
    return obj if lo == 0 and hi == len(obj) else Slice(obj, lo, hi)


def _part(ext: Extent, lo: int, hi: int) -> Slice:
    """Bytes ``[lo, hi)`` of ``ext`` (a strict part of it), by reference."""
    if type(ext) is Slice:
        return Slice(ext.obj, ext.lo + lo, ext.lo + hi)
    return Slice(ext, lo, hi)


def _remainder(ext: Extent, lo: int, hi: int) -> Extent:
    """What a write leaves of ``ext``: bytes ``[lo, hi)`` of it, a slice when
    that is at least half of its object and ``_SLICE_MIN`` bytes, a copy
    otherwise."""
    if type(ext) is Slice:
        obj, lo, hi = ext.obj, ext.lo + lo, ext.lo + hi
    else:
        obj = ext
    n = hi - lo
    if n >= _SLICE_MIN and 2 * n >= len(obj):
        return Slice(obj, lo, hi)
    return obj[lo:hi]


def _coalesce(starts: List[int], bufs: List[Extent]) -> None:
    """Fuse, in place, each slice with the one before it when it continues
    it: same object, contiguous in the object and in memory."""
    k = 1
    while k < len(bufs):
        a, b = bufs[k - 1], bufs[k]
        if (type(a) is Slice and type(b) is Slice and a.obj is b.obj
                and a.hi == b.lo and starts[k - 1] + len(a) == starts[k]):
            bufs[k - 1] = _extent(a.obj, a.lo, b.hi)
            del bufs[k], starts[k]
        else:
            k += 1


class _Segment:
    __slots__ = ("base", "size", "_starts", "_bufs")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        # Sorted offsets, and the extent written at each of them.  A segment
        # nobody wrote to yet shares one empty tuple for both: most
        # registered buffers of an idle connection stay that way.
        self._starts: Sequence[int] = ()
        self._bufs: Sequence[Extent] = ()

    @property
    def resident(self) -> int:
        return sum(map(len, self._bufs))

    def write(self, off: int, data) -> None:
        """Store ``data`` -- ``bytes``, a :class:`Slice`, any other
        bytes-like (snapshotted), or a list of those -- at ``off``."""
        slices = False
        if type(data) is list:
            new_starts, new_bufs = [], []
            pos = off
            for piece in data:
                if type(piece) is Slice:
                    slices = True
                elif type(piece) is not bytes:
                    piece = bytes(piece)
                if piece:
                    new_starts.append(pos)
                    new_bufs.append(piece)
                    pos += len(piece)
            if not new_bufs:
                return
            end = pos
        else:
            if type(data) is Slice:
                slices = True
            elif type(data) is not bytes:
                data = bytes(data)              # snapshot a mutable source
            if not data:
                return
            new_starts, new_bufs = [off], [data]
            end = off + len(data)
        self._splice(off, end, new_starts, new_bufs, slices)

    def discard(self, off: int, n: int) -> None:
        """Release ``[off, off + n)``: the splice of :meth:`write` with
        nothing inserted.  The range reads as zeros again, like bytes never
        written; a range that cuts no extent copies nothing."""
        starts = self._starts
        if n <= 0 or not starts:
            return
        if off <= starts[0] and starts[-1] + len(self._bufs[-1]) <= off + n:
            # The common release: the slot holds every extent of the segment.
            self._starts = self._bufs = ()
        else:
            self._splice(off, off + n, [], [], False)

    def _splice(self, off: int, end: int, new_starts: List[int],
                new_bufs: List[Extent], slices: bool) -> None:
        """Replace the extents ``[off, end)`` intersects by the remainders
        they leave outside it around ``new_bufs`` (at ``new_starts``, inside
        the range; none for a discard).  ``slices``: some new extent is a
        :class:`Slice`, so neighbours may coalesce."""
        starts, bufs = self._starts, self._bufs
        if not starts:
            if slices:
                _coalesce(new_starts, new_bufs)
            self._starts, self._bufs = new_starts, new_bufs
            return
        # Extents i..j-1 are the ones [off, end) intersects.
        i = bisect_right(starts, off) - 1
        if i < 0 or starts[i] + len(bufs[i]) <= off:
            i += 1
        j = bisect_left(starts, end, i)
        if i < j:
            if starts[i] < off:                 # head of the first survives
                new_starts.insert(0, starts[i])
                new_bufs.insert(0, _remainder(bufs[i], 0, off - starts[i]))
            last = bufs[j - 1]
            cut = end - starts[j - 1]
            if cut < len(last):                 # tail of the last survives
                new_starts.append(end)
                new_bufs.append(_remainder(last, cut, len(last)))
        if slices:
            # A written slice may continue a remainder, or an untouched
            # neighbour that touches the run.
            if i > 0 and starts[i - 1] + len(bufs[i - 1]) == new_starts[0]:
                i -= 1
                new_starts.insert(0, starts[i])
                new_bufs.insert(0, bufs[i])
            if j < len(starts) and \
                    starts[j] == new_starts[-1] + len(new_bufs[-1]):
                new_starts.append(starts[j])
                new_bufs.append(bufs[j])
                j += 1
            _coalesce(new_starts, new_bufs)
        starts[i:j] = new_starts
        bufs[i:j] = new_bufs

    def gather(self, off: int, length: int):
        """The pieces covering ``[off, off + length)``, by reference: one
        extent or slice, or a list of extents, slices and zero gaps."""
        if length <= 0:
            return b""
        starts, bufs = self._starts, self._bufs
        i = bisect_right(starts, off) - 1
        if i >= 0:
            buf = bufs[i]
            at = off - starts[i]
            if at + length <= len(buf):         # inside one extent
                if length == len(buf):
                    return buf                  # all of it: the extent itself
                return _part(buf, at, at + length)
        else:
            i = 0
        end = off + length
        pieces: List[Extent] = []
        pos = off
        while i < len(starts) and starts[i] < end:
            start = starts[i]
            buf = bufs[i]
            lo = max(pos, start)
            hi = min(end, start + len(buf))
            if lo < hi:
                if pos < lo:
                    pieces.append(bytes(lo - pos))
                pieces.append(buf if hi - lo == len(buf)
                              else _part(buf, lo - start, hi - start))
                pos = hi
            i += 1
        if pos < end:
            pieces.append(bytes(end - pos))
        return pieces[0] if len(pieces) == 1 else pieces

    def read(self, off: int, length: int) -> bytes:
        starts, bufs = self._starts, self._bufs
        i = bisect_right(starts, off) - 1
        if i >= 0:
            buf = bufs[i]
            at = off - starts[i]
            if at + length <= len(buf):         # inside one extent
                if type(buf) is Slice:
                    at += buf.lo
                    return buf.obj[at:at + length]
                if length == len(buf):
                    return buf                  # all of it: the object itself
                return buf[at:at + length]
        got = self.gather(off, length)
        if type(got) is bytes:
            return got
        return b"".join([p if type(p) is bytes
                         else memoryview(p.obj)[p.lo:p.hi] for p in got])


class _FreedSegment(_Segment):
    """What :meth:`Memory.free` leaves of a segment, for the MRs that still
    hold it: every access faults, as one to unallocated memory does."""

    __slots__ = ()

    def _fault(self, off: int, *_):
        raise MemoryAccessError(
            f"access at {self.base + off:#x} to freed memory")

    write = gather = read = discard = _fault


class Memory:
    """Auto-growing byte store; allocations are bounds-checked segments."""

    def __init__(self, initial: int = 0):
        # ``initial`` is accepted for API compatibility; segments are lazy.
        self._brk = _ALIGN  # keep address 0 invalid, like NULL
        self._bases: List[int] = []
        self._segs: Dict[int, _Segment] = {}

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError(f"alloc size must be positive, got {size}")
        addr = self._brk
        self._brk += (size + _ALIGN - 1) // _ALIGN * _ALIGN
        self._bases.append(addr)        # _brk only grows: already sorted
        self._segs[addr] = _Segment(addr, size)
        return addr

    def free(self, addr: int) -> None:
        seg = self._segs.pop(addr, None)
        if seg is None:
            raise MemoryAccessError(f"free of unallocated address {addr:#x}")
        del self._bases[bisect_left(self._bases, addr)]
        seg._starts = seg._bufs = ()            # its extents go with it
        seg.__class__ = _FreedSegment           # for the MRs that hold it

    @property
    def live_bytes(self) -> int:
        return sum(s.size for s in self._segs.values())

    @property
    def resident_bytes(self) -> int:
        """Bytes written and not yet released -- a host-RAM gauge."""
        return sum(s.resident for s in self._segs.values())

    def segment(self, addr: int, length: int) -> _Segment:
        """The allocation ``[addr, addr + length)`` lies in."""
        if length < 0:
            raise MemoryAccessError("negative access length")
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            seg = self._segs.get(self._bases[i])
            if seg is not None and addr + length <= seg.base + seg.size:
                return seg
        raise MemoryAccessError(
            f"access [{addr:#x}, {addr + length:#x}) outside any allocation")

    def write(self, addr: int, data) -> None:
        """Store ``data`` at ``addr``: a bytes-like, or what :meth:`gather`
        returned (scattered without a copy)."""
        n = sum(map(len, data)) if type(data) is list else len(data)
        seg = self.segment(addr, n)
        seg.write(addr - seg.base, data)

    def gather(self, addr: int, length: int):
        """The bytes at ``[addr, addr + length)`` as pieces for
        :meth:`write` -- by reference, never joined."""
        seg = self.segment(addr, length)
        return seg.gather(addr - seg.base, length)

    def read(self, addr: int, length: int) -> bytes:
        seg = self.segment(addr, length)
        return seg.read(addr - seg.base, length)

    def discard(self, addr: int, length: int) -> None:
        """Release ``[addr, addr + length)``: it reads as zeros and stops
        counting in :attr:`resident_bytes`.  Costs no simulated time."""
        seg = self.segment(addr, length)
        seg.discard(addr - seg.base, length)

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        seg = self.segment(addr, length)
        seg.write(addr - seg.base, bytes([byte]) * length)
