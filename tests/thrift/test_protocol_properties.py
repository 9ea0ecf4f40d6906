"""Property-based serialization tests: arbitrary nested values round-trip
through the binary protocol's per-value methods."""

from hypothesis import given, settings, strategies as st

from repro.thrift import TBinaryProtocol, TMemoryBuffer, TType

from tests.thrift.dynvalue import read_value, write_value

# Scalar strategies per ttype.  Doubles exclude NaN for ==-comparability.
_SCALARS = [
    (TType.BOOL, st.booleans()),
    (TType.BYTE, st.integers(-128, 127)),
    (TType.I16, st.integers(-2**15, 2**15 - 1)),
    (TType.I32, st.integers(-2**31, 2**31 - 1)),
    (TType.I64, st.integers(-2**63, 2**63 - 1)),
    (TType.DOUBLE, st.floats(allow_nan=False)),
    (TType.STRING, st.text(max_size=50)),
]


def _scalar_typed():
    return st.sampled_from(range(len(_SCALARS))).flatmap(
        lambda i: st.tuples(st.just(_SCALARS[i][0]), _SCALARS[i][1]))


def _typed_value(max_depth=2):
    """Strategy producing (ttype, value) trees in dynvalue representation."""
    base = _scalar_typed()
    if max_depth == 0:
        return base
    sub = _typed_value(max_depth - 1)

    def make_list(children):
        # homogeneous element type is required by the wire format
        if not children:
            return (TType.LIST, (TType.I32, []))
        etype = children[0][0]
        same = [v for t, v in children if t == etype]
        return (TType.LIST, (etype, same))

    def make_map(pairs):
        if not pairs:
            return (TType.MAP, (TType.I32, TType.STRING, {}))
        ktype = TType.I32
        vtype = pairs[0][0]
        mapping = {}
        for i, (t, v) in enumerate(pairs):
            if t == vtype:
                mapping[i] = v
        return (TType.MAP, (ktype, vtype, mapping))

    def make_struct(children):
        return (TType.STRUCT,
                {i + 1: tv for i, tv in enumerate(children)})

    return st.one_of(
        base,
        st.lists(sub, max_size=4).map(make_list),
        st.lists(sub, max_size=4).map(make_map),
        st.lists(sub, max_size=4).map(make_struct),
    )


def _roundtrip(ttype, value):
    buf = TMemoryBuffer()
    prot = TBinaryProtocol(buf)
    prot.write_struct_begin("S")
    prot.write_field_begin("f", ttype, 1)
    write_value(prot, ttype, value)
    prot.write_field_end()
    prot.write_field_stop()
    prot.write_struct_end()
    rprot = TBinaryProtocol(TMemoryBuffer(buf.getvalue()))
    rprot.read_struct_begin()
    _n, rttype, _fid = rprot.read_field_begin()
    assert rttype == ttype
    out = read_value(rprot, ttype)
    rprot.read_field_end()
    rprot.read_struct_end()
    return out


@settings(max_examples=150, deadline=None)
@given(_typed_value())
def test_binary_roundtrip(tv):
    ttype, value = tv
    assert _roundtrip(ttype, value) == value


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_binary_bytes_roundtrip_all_protocols(data):
    buf = TMemoryBuffer()
    prot = TBinaryProtocol(buf)
    prot.write_struct_begin("S")
    prot.write_field_begin("b", TType.STRING, 1)
    prot.write_binary(data)
    prot.write_field_end()
    prot.write_field_stop()
    prot.write_struct_end()
    rprot = TBinaryProtocol(TMemoryBuffer(buf.getvalue()))
    rprot.read_struct_begin()
    rprot.read_field_begin()
    assert rprot.read_binary() == data
