"""The HatRPC frame header: the one thing that may precede a Thrift message.

A message with nothing to say beyond its Thrift bytes carries no header at
all -- blocking, untraced, untuned traffic is plain Thrift on the wire.
Otherwise it leads with::

    magic(2) = 0xC4 'H'   version(1) = 1   flags(1)

followed by the fields the flags announce, always in this order:

=====  ===============  =====  ==========================================
flag   field            bytes  encoding
=====  ===============  =====  ==========================================
0x01   ``trace``        26     version(1)=1, flags(1) bit0=sampled,
                               trace_id(16), parent span_id(8)
0x02   ``seq``          4      u32 pipeline correlation number
0x04   ``epoch``        4      u32 tuner plan epoch
0x08   ``retry_after``  8      f64 seconds: the message is a rejection
=====  ===============  =====  ==========================================

The first magic byte cannot start a Thrift message (strict binary starts
``0x80``, compact ``0x82``, JSON ``[``, non-strict binary with the high
byte of its name length, below ``0x80``), so :func:`split` decides from
the bytes alone, and anything that is not a complete header of a known
version with known flags passes through untouched.  Stdlib-only, so
``obs``, ``thrift``, ``protocols`` and ``core`` can all import it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = ["MAX_BYTES", "NONE", "Header", "SpanContext", "pack", "split"]

_PREFIX = b"\xc4H\x01"        # magic(2) + format version(1)
_TRACE_VERSION = 1
_SAMPLED = 0x01

_TRACE, _SEQ, _EPOCH, _RETRY_AFTER = 0x01, 0x02, 0x04, 0x08
_FIELDS = ((_TRACE, "BB16s8s"), (_SEQ, "I"), (_EPOCH, "I"),
           (_RETRY_AFTER, "d"))

#: flags byte -> layout of the whole header; a flags byte that is no key
#: (no field at all, or a bit this version does not define) is no header
_LAYOUTS: Dict[int, struct.Struct] = {
    flags: struct.Struct("!3sB" + "".join(
        fmt for bit, fmt in _FIELDS if flags & bit))
    for flags in range(1, 16)}

#: the longest header there is (every field set): what a stream reader
#: must look ahead to be sure it sees a whole one
MAX_BYTES = _LAYOUTS[15].size


@dataclass(frozen=True)
class SpanContext:
    """The trace field: ids + the head-sampling decision."""

    trace_id: str               # 32 hex chars
    span_id: str                # 16 hex chars (the parent of remote spans)
    sampled: bool = True


class Header(NamedTuple):
    """The decoded header; a field the message did not carry is None."""

    trace: Optional[SpanContext] = None
    seq: Optional[int] = None
    epoch: Optional[int] = None
    retry_after: Optional[float] = None


#: what a message without a header decodes to
NONE = Header()


def pack(trace: Optional[SpanContext] = None, seq: Optional[int] = None,
         epoch: Optional[int] = None,
         retry_after: Optional[float] = None) -> bytes:
    """The header announcing the given fields; ``b""`` for none."""
    flags = 0
    values: List[object] = []
    if trace is not None:
        flags |= _TRACE
        values += (_TRACE_VERSION, _SAMPLED if trace.sampled else 0,
                   bytes.fromhex(trace.trace_id),
                   bytes.fromhex(trace.span_id))
    if seq is not None:
        flags |= _SEQ
        values.append(seq & 0xFFFFFFFF)
    if epoch is not None:
        flags |= _EPOCH
        values.append(epoch & 0xFFFFFFFF)
    if retry_after is not None:
        flags |= _RETRY_AFTER
        values.append(max(0.0, retry_after))
    if not flags:
        return b""
    return _LAYOUTS[flags].pack(_PREFIX, flags, *values)


def split(data: bytes) -> Tuple[Header, bytes]:
    """``(header, body)`` if ``data`` leads with a header, else
    ``(NONE, data)`` with ``data`` itself, not a copy."""
    if data[:3] != _PREFIX or len(data) < 4:
        return NONE, data
    layout = _LAYOUTS.get(data[3])
    if layout is None or len(data) < layout.size:
        return NONE, data
    fields = layout.unpack_from(data)       # (prefix, flags, *values)
    flags = fields[1]
    trace = None
    i = 2
    if flags & _TRACE:
        if fields[2] != _TRACE_VERSION:
            return NONE, data
        trace = SpanContext(fields[4].hex(), fields[5].hex(),
                            bool(fields[3] & _SAMPLED))
        i = 6
    seq = epoch = retry_after = None
    if flags & _SEQ:
        seq = fields[i]
        i += 1
    if flags & _EPOCH:
        epoch = fields[i]
        i += 1
    if flags & _RETRY_AFTER:
        retry_after = fields[i]
    return Header(trace, seq, epoch, retry_after), data[layout.size:]
