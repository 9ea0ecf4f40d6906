"""Flat per-node virtual memory with a segment allocator.

Memory regions (MRs) are windows over this space; RDMA ops move real bytes
between nodes' Memory objects, so payload contents survive end-to-end --
which lets the upper layers (Thrift serialization, HatKV) be tested for
actual data correctness, not just timing.

Each allocation is a *segment* backed sparsely: it holds only the bytes that
were written, as *extents* -- runs of bytes keyed by the offset of their
first write (reads of anything else return zeros, like freshly mapped
pages).  Host RAM therefore follows the bytes written, not the highest
offset written: a 48-slot x 18 KiB message ring carrying 1 KiB messages
holds 48 KiB, and 512 pre-registered-but-idle connections hold nothing --
pre-registered buffers are the scaling cost of real RDMA endpoints
(RDMAvisor), a model of them must not pay it in host RAM too.

Extent invariants (checked by ``tests/verbs/test_memory_extents.py``):
``_starts`` is sorted and ``_bufs[i]`` holds the bytes at
``[_starts[i], _starts[i] + len(_bufs[i]))``; extents neither overlap nor
touch (each is a maximal run of written bytes) and none is empty.  A write
that begins inside or at the end of an extent and stops short of the next
one overwrites/grows that extent in place -- the access pattern of a ring
slot (``protocols/directwrite.py``: every message of slot *k* starts at
``k * stride``), which is why extents and not fixed-size pages: a 128 KiB
copy is one slice assignment, not 32 page hops.  Only a write that reaches a
following extent merges, once: an RFP response buffer is written payload
first, header second (``protocols/serverbypass.py``), and is one extent from
the second write on.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence

from repro.verbs.errors import MemoryAccessError

__all__ = ["Memory"]

_ALIGN = 64  # cache-line alignment for all allocations
#: reads at least this long go through a memoryview (one copy of the bytes);
#: below it the view costs more than the second copy of ``bytes(buf[a:b])``
_ONE_COPY_MIN = 4096


class _Segment:
    __slots__ = ("base", "size", "_starts", "_bufs")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        # Sorted first-written offsets, and the extent at each of them.  A
        # segment nobody wrote to yet shares one empty tuple for both: most
        # registered buffers of an idle connection stay that way.
        self._starts: Sequence[int] = ()
        self._bufs: Sequence[bytearray] = ()

    @property
    def resident(self) -> int:
        return sum(map(len, self._bufs))

    def write(self, off: int, payload: bytes) -> None:
        if not payload:
            return
        starts, bufs = self._starts, self._bufs
        if not starts:
            self._starts, self._bufs = [off], [bytearray(payload)]
            return
        end = off + len(payload)
        i = bisect_right(starts, off) - 1       # last extent starting <= off
        if i >= 0 and off <= starts[i] + len(bufs[i]):
            if i + 1 == len(starts) or end < starts[i + 1]:
                at = off - starts[i]
                bufs[i][at:at + len(payload)] = payload     # overwrite / grow
                return
        else:
            i += 1                              # begins in a gap, before i
            if i == len(starts) or end < starts[i]:
                starts.insert(i, off)
                bufs.insert(i, bytearray(payload))
                return
        # The write reaches extent i+1 (or, from a gap, extent i): fuse all
        # it touches -- the head of the first, the payload, the tail of the
        # last -- into one extent.
        j = bisect_right(starts, end) - 1       # last extent starting <= end
        lo = min(off, starts[i])
        merged = bufs[i][:off - lo]
        merged += payload
        merged += memoryview(bufs[j])[end - starts[j]:]
        starts[i:j + 1] = [lo]
        bufs[i:j + 1] = [merged]

    def read(self, off: int, length: int) -> bytes:
        starts, bufs = self._starts, self._bufs
        i = bisect_right(starts, off) - 1
        if i >= 0:
            buf = bufs[i]
            at = off - starts[i]
            if at + length <= len(buf):         # inside one extent
                if length < _ONE_COPY_MIN:
                    return bytes(buf[at:at + length])
                return bytes(memoryview(buf)[at:at + length])
        else:
            i = 0
        # Zeros, with whatever extents intersect [off, end) laid over them.
        end = off + length
        out = bytearray(length)
        while i < len(starts) and starts[i] < end:
            lo = max(off, starts[i])
            hi = min(end, starts[i] + len(bufs[i]))
            if lo < hi:
                out[lo - off:hi - off] = \
                    memoryview(bufs[i])[lo - starts[i]:hi - starts[i]]
            i += 1
        return bytes(out)


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
        if addr not in self._segs:
            raise MemoryAccessError(f"free of unallocated address {addr:#x}")
        del self._segs[addr]
        del self._bases[bisect_left(self._bases, addr)]

    @property
    def live_bytes(self) -> int:
        return sum(s.size for s in self._segs.values())

    @property
    def resident_bytes(self) -> int:
        """Actually materialized (written) bytes -- a host-RAM gauge."""
        return sum(s.resident for s in self._segs.values())

    def _segment(self, addr: int, length: int) -> _Segment:
        if length < 0:
            raise MemoryAccessError("negative access length")
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            seg = self._segs.get(self._bases[i])
            if seg is not None and addr + length <= seg.base + seg.size:
                return seg
        raise MemoryAccessError(
            f"access [{addr:#x}, {addr + length:#x}) outside any allocation")

    def write(self, addr: int, data: bytes) -> None:
        seg = self._segment(addr, len(data))
        seg.write(addr - seg.base, data)

    def read(self, addr: int, length: int) -> bytes:
        seg = self._segment(addr, length)
        return seg.read(addr - seg.base, length)

    def fill(self, addr: int, length: int, byte: int = 0) -> None:
        seg = self._segment(addr, length)
        seg.write(addr - seg.base, bytes([byte]) * length)
