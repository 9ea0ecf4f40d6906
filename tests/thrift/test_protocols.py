"""Serialization unit tests for the binary protocol's per-value methods
(the generic path: ``skip``, the application-exception struct and the
generated structs' field visitor)."""

import math

import pytest

from repro.thrift import (
    TBinaryProtocol,
    TMemoryBuffer,
    TMessageType,
    TProtocolException,
    TType,
)

from tests.thrift.dynvalue import read_value, write_value

PROTOS = [TBinaryProtocol]


def roundtrip(proto_cls, ttype, value, binary=False):
    buf = TMemoryBuffer()
    prot = proto_cls(buf)
    prot.write_struct_begin("S")
    prot.write_field_begin("f", ttype, 1)
    write_value(prot, ttype, value)
    prot.write_field_end()
    prot.write_field_stop()
    prot.write_struct_end()

    rbuf = TMemoryBuffer(buf.getvalue())
    rprot = proto_cls(rbuf)
    rprot.read_struct_begin()
    _n, rttype, fid = rprot.read_field_begin()
    assert rttype == ttype and fid == 1
    out = read_value(rprot, ttype, binary)
    rprot.read_field_end()
    _n, stop, _f = rprot.read_field_begin()
    assert stop == TType.STOP
    rprot.read_struct_end()
    return out


@pytest.mark.parametrize("proto_cls", PROTOS)
@pytest.mark.parametrize("value", [True, False])
def test_bool(proto_cls, value):
    assert roundtrip(proto_cls, TType.BOOL, value) is value


@pytest.mark.parametrize("proto_cls", PROTOS)
@pytest.mark.parametrize("ttype,value", [
    (TType.BYTE, -128), (TType.BYTE, 127),
    (TType.I16, -32768), (TType.I16, 32767),
    (TType.I32, -2**31), (TType.I32, 2**31 - 1),
    (TType.I64, -2**63), (TType.I64, 2**63 - 1),
    (TType.I32, 0), (TType.I64, -1),
])
def test_integers(proto_cls, ttype, value):
    assert roundtrip(proto_cls, ttype, value) == value


@pytest.mark.parametrize("proto_cls", PROTOS)
@pytest.mark.parametrize("value", [0.0, -1.5, 3.141592653589793, 1e300,
                                   float("inf"), float("-inf")])
def test_double(proto_cls, value):
    assert roundtrip(proto_cls, TType.DOUBLE, value) == value


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_double_nan(proto_cls):
    assert math.isnan(roundtrip(proto_cls, TType.DOUBLE, float("nan")))


@pytest.mark.parametrize("proto_cls", PROTOS)
@pytest.mark.parametrize("value", ["", "hello", "uñïcødé \N{SNOWMAN}",
                                   "x" * 10000])
def test_string(proto_cls, value):
    assert roundtrip(proto_cls, TType.STRING, value) == value


@pytest.mark.parametrize("proto_cls", PROTOS)
@pytest.mark.parametrize("value", [b"", b"\x00\xff\xfe", bytes(range(256))])
def test_binary(proto_cls, value):
    assert roundtrip(proto_cls, TType.STRING, value, binary=True) == value


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_list_of_i32(proto_cls):
    v = (TType.I32, [1, -2, 3, 40000])
    assert roundtrip(proto_cls, TType.LIST, v) == v


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_long_list_exceeds_compact_short_form(proto_cls):
    v = (TType.I32, list(range(100)))
    assert roundtrip(proto_cls, TType.LIST, v) == v


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_empty_list_and_map(proto_cls):
    assert roundtrip(proto_cls, TType.LIST, (TType.STRING, [])) == \
        (TType.STRING, [])
    got = roundtrip(proto_cls, TType.MAP, (TType.I32, TType.STRING, {}))
    assert got[2] == {}


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_map_str_to_i64(proto_cls):
    v = (TType.STRING, TType.I64, {"a": 1, "b": -2**40})
    assert roundtrip(proto_cls, TType.MAP, v) == v


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_nested_struct(proto_cls):
    inner = {1: (TType.STRING, "in"), 2: (TType.I32, 9)}
    outer = {1: (TType.STRUCT, inner), 3: (TType.BOOL, True)}
    assert roundtrip(proto_cls, TType.STRUCT, outer) == outer


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_list_of_structs(proto_cls):
    s1 = {1: (TType.I32, 1)}
    s2 = {1: (TType.I32, 2), 2: (TType.STRING, "two")}
    v = (TType.STRUCT, [s1, s2])
    assert roundtrip(proto_cls, TType.LIST, v) == v


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_message_header_roundtrip(proto_cls):
    buf = TMemoryBuffer()
    prot = proto_cls(buf)
    prot.write_message_begin("doWork", TMessageType.CALL, 42)
    prot.write_struct_begin("args")
    prot.write_field_stop()
    prot.write_struct_end()
    prot.write_message_end()

    rprot = proto_cls(TMemoryBuffer(buf.getvalue()))
    name, mtype, seqid = rprot.read_message_begin()
    assert (name, mtype, seqid) == ("doWork", TMessageType.CALL, 42)


@pytest.mark.parametrize("proto_cls", PROTOS)
def test_skip_unknown_fields(proto_cls):
    """A reader that recognizes no fields must still traverse the struct."""
    buf = TMemoryBuffer()
    prot = proto_cls(buf)
    complex_struct = {
        1: (TType.LIST, (TType.I32, [1, 2, 3])),
        2: (TType.MAP, (TType.STRING, TType.DOUBLE, {"pi": 3.14})),
        3: (TType.STRUCT, {1: (TType.STRING, "deep")}),
        4: (TType.I64, 77),
    }
    write_value(prot, TType.STRUCT, complex_struct)

    rprot = proto_cls(TMemoryBuffer(buf.getvalue()))
    rprot.read_struct_begin()
    seen = 0
    while True:
        _n, ftype, _fid = rprot.read_field_begin()
        if ftype == TType.STOP:
            break
        rprot.skip(ftype)
        rprot.read_field_end()
        seen += 1
    rprot.read_struct_end()
    assert seen == 4


def test_binary_rejects_bad_version():
    buf = TMemoryBuffer(b"\x00\x00\x00\x05hello")
    with pytest.raises(TProtocolException):
        TBinaryProtocol(buf).read_message_begin()
