"""Flat per-node virtual memory with a segment allocator.

Memory regions (MRs) are windows over this space; RDMA ops move real bytes
between nodes' Memory objects, so payload contents survive end-to-end --
which lets the upper layers (Thrift serialization, HatKV) be tested for
actual data correctness, not just timing.

Each allocation is a *segment* backed sparsely: it holds only the bytes that
were written, as *extents* -- immutable ``bytes`` objects keyed by the offset
they were written at (reads of anything else return zeros, like freshly mapped
pages).  Host RAM therefore follows the bytes written, not the highest
offset written: a 48-slot x 18 KiB message ring carrying 1 KiB messages
holds 48 KiB, and 512 pre-registered-but-idle connections hold nothing --
pre-registered buffers are the scaling cost of real RDMA endpoints
(RDMAvisor), a model of them must not pay it in host RAM too.

Payloads move **by reference**.  A write is one splice: the extents that
``[off, end)`` intersects are replaced by (what is left of the first before
``off``) + the payload object itself + (what is left of the last from
``end``).  A read that is exactly one extent returns that object; a read
inside one extent is a slice; a read across extents or gaps is one
``b"".join`` over slices and ``bytes(gap)`` zeros.  So where the model says
"the NIC moved it" -- ``staging.write(msg)`` -> ``mem.read(sge)`` ->
``rdev.mem.write(...)`` -- one ``bytes`` object crosses both NICs and is
never copied on the host; bytes are copied only where a message is assembled
from parts or a part is cut out of one:

* *reference*: a ``bytes`` payload written whole; a read of a whole extent;
* *copy*: a payload that is not exactly ``bytes`` (``bytearray``,
  ``memoryview``: snapshotted once, so later mutation of the source cannot
  reach registered memory); the head/tail remainders of a partly overwritten
  extent (a slice, which also lets the old message die instead of being
  kept alive by a 3-byte tail); any read that is not exactly one extent.

Extent invariants (checked by ``tests/verbs/test_memory_extents.py``):
``_starts`` is sorted and ``_bufs[i]`` holds the bytes at
``[_starts[i], _starts[i] + len(_bufs[i]))``; extents do not overlap and none
is empty.  They may touch: an RFP response buffer written payload first,
header second (``protocols/serverbypass.py``) is two extents, and the
client's header+payload READ joins them.  A ring slot rewritten with varying
message sizes (``protocols/directwrite.py``: every message of slot *k* starts
at ``k * stride``) keeps the tail remainders of longer predecessors behind
the current message -- a descending staircase of a few extents per slot,
however many messages pass (each write swallows every extent it covers).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence

from repro.verbs.errors import MemoryAccessError

__all__ = ["Memory"]

_ALIGN = 64  # cache-line alignment for all allocations


class _Segment:
    __slots__ = ("base", "size", "_starts", "_bufs")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        # Sorted offsets, and the extent written at each of them.  A segment
        # nobody wrote to yet shares one empty tuple for both: most
        # registered buffers of an idle connection stay that way.
        self._starts: Sequence[int] = ()
        self._bufs: Sequence[bytes] = ()

    @property
    def resident(self) -> int:
        return sum(map(len, self._bufs))

    def write(self, off: int, payload: bytes) -> None:
        if type(payload) is not bytes:
            payload = bytes(payload)            # snapshot a mutable source
        if not payload:
            return
        starts, bufs = self._starts, self._bufs
        if not starts:
            self._starts, self._bufs = [off], [payload]
            return
        end = off + len(payload)
        # Extents i..j-1 are the ones [off, end) intersects.
        i = bisect_right(starts, off) - 1
        if i < 0 or starts[i] + len(bufs[i]) <= off:
            i += 1
        j = bisect_left(starts, end, i)
        new_starts, new_bufs = [off], [payload]
        if i < j:
            if starts[i] < off:                 # head of the first survives
                new_starts.insert(0, starts[i])
                new_bufs.insert(0, bufs[i][:off - starts[i]])
            cut = end - starts[j - 1]
            if cut < len(bufs[j - 1]):          # tail of the last survives
                new_starts.append(end)
                new_bufs.append(bufs[j - 1][cut:])
        starts[i:j] = new_starts
        bufs[i:j] = new_bufs

    def read(self, off: int, length: int) -> bytes:
        starts, bufs = self._starts, self._bufs
        i = bisect_right(starts, off) - 1
        if i >= 0:
            buf = bufs[i]
            at = off - starts[i]
            if at + length <= len(buf):         # inside one extent
                if length == len(buf):
                    return buf                  # all of it: the object itself
                return buf[at:at + length]
        else:
            i = 0
        # Slices of the extents that intersect [off, end), zeros between.
        end = off + length
        parts = []
        pos = off
        while i < len(starts) and starts[i] < end:
            lo = max(pos, starts[i])
            hi = min(end, starts[i] + len(bufs[i]))
            if lo < hi:
                if pos < lo:
                    parts.append(bytes(lo - pos))
                parts.append(bufs[i][lo - starts[i]:hi - starts[i]])
                pos = hi
            i += 1
        if pos < end:
            parts.append(bytes(end - pos))
        return b"".join(parts)


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
