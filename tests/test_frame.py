"""The frame header (:mod:`repro.frame`): every field combination round
trips, the byte counts are the documented ones, and anything that is not a
complete, known header -- above all a plain Thrift message -- passes
through ``split`` untouched."""

import struct
from itertools import product

import pytest
from hypothesis import given, strategies as st

from repro import frame
from repro.frame import NONE, Header, SpanContext, pack, split
from repro.thrift import TBinaryProtocol, TMemoryBuffer, TMessageType

_hex = "0123456789abcdef"
contexts = st.builds(SpanContext,
                     st.text(_hex, min_size=32, max_size=32),
                     st.text(_hex, min_size=16, max_size=16),
                     st.booleans())
u32 = st.integers(0, 2**32 - 1)
seconds = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


def headers():
    """Every one of the 16 set/unset combinations, with arbitrary values."""
    return st.builds(Header, st.none() | contexts, st.none() | u32,
                     st.none() | u32, st.none() | seconds)


CTX = SpanContext("ab" * 16, "cd" * 8)


# -- round trip --------------------------------------------------------------

@given(headers(), st.binary(max_size=64))
def test_roundtrip_every_field_combination(header, body):
    wire = pack(*header) + body
    assert split(wire) == (header, body)


def test_all_sixteen_combinations_are_distinct_layouts():
    values = (CTX, 7, 3, 0.25)
    seen = set()
    for mask in product((False, True), repeat=4):
        header = Header(*(v if on else None for v, on in zip(values, mask)))
        wire = pack(*header)
        assert split(wire + b"") == (header, b"")      # empty body
        assert split(wire + b"body") == (header, b"body")
        seen.add(wire)
    assert len(seen) == 16


def test_no_field_means_no_header():
    assert pack() == b""
    assert pack(None, None, None, None) == b""


# -- the byte-count table ----------------------------------------------------

def test_one_field_costs_four_bytes_plus_its_own():
    assert len(pack(seq=1)) == 8
    assert len(pack(epoch=1)) == 8
    assert len(pack(retry_after=1e-3)) == 12
    assert len(pack(trace=CTX)) == 30


def test_every_further_field_costs_only_its_own():
    assert len(pack(seq=1, epoch=1)) == 12
    assert len(pack(seq=1, retry_after=1e-3)) == 16
    assert len(pack(trace=CTX, seq=1)) == 34
    assert len(pack(trace=CTX, seq=1, epoch=1)) == 38
    assert len(pack(CTX, 1, 1, 1e-3)) == frame.MAX_BYTES == 46


def test_header_starts_with_a_byte_no_thrift_message_starts_with():
    assert pack(seq=0)[0] == 0xC4


def test_seq_and_epoch_wrap_to_u32():
    assert split(pack(seq=2**32 + 5, epoch=-1))[0] == \
        Header(seq=5, epoch=2**32 - 1)


def test_negative_retry_after_clamps_to_zero():
    assert split(pack(retry_after=-1.0))[0].retry_after == 0.0


# -- pass-through ------------------------------------------------------------

def assert_passes_through(data):
    header, body = split(data)
    assert header is NONE
    assert body is data                 # the same object, not a copy


@given(st.binary(max_size=64).filter(lambda b: b[:2] != b"\xc4H"))
def test_bytes_without_the_magic_pass_through(data):
    assert_passes_through(data)


@given(headers().filter(lambda h: h != NONE))
def test_every_truncation_of_a_header_passes_through(header):
    wire = pack(*header)
    for n in range(len(wire)):
        assert_passes_through(wire[:n])


def test_unknown_format_version_passes_through():
    wire = bytearray(pack(seq=1) + b"body")
    wire[2] = 2
    assert_passes_through(bytes(wire))


@pytest.mark.parametrize("flags", [0x00, 0x10, 0x12, 0x80, 0xFF])
def test_unknown_flag_bits_pass_through(flags):
    wire = bytearray(pack(CTX, 1, 1, 1e-3) + b"body")
    wire[3] = flags
    assert_passes_through(bytes(wire))


def test_unknown_trace_context_version_passes_through():
    wire = bytearray(pack(trace=CTX, seq=1) + b"body")
    wire[4] = 99                        # the trace field's own version byte
    assert_passes_through(bytes(wire))


def _strict_binary():
    buf = TMemoryBuffer()
    prot = TBinaryProtocol(buf)
    prot.write_message_begin("Get", TMessageType.CALL, 1)
    prot.write_struct_begin("Get_args")
    prot.write_field_stop()
    prot.write_struct_end()
    prot.write_message_end()
    return buf.getvalue()


def _non_strict_binary(name=b"Get", seqid=1):
    """What a pre-versioning TBinaryProtocol writes: name, type, seqid."""
    return struct.pack("!i", len(name)) + name + \
        bytes([TMessageType.CALL]) + struct.pack("!i", seqid) + b"\x00"


@pytest.mark.parametrize("message", [
    _strict_binary(),
    _non_strict_binary(),
], ids=["binary-strict", "binary-non-strict"])
def test_thrift_messages_pass_through(message):
    assert message[0] != 0xC4
    assert_passes_through(message)
