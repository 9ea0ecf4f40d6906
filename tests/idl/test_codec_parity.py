"""The compiled binary codec against a reference field visitor.

Every generated struct has one codec, compiled for its field list; at the
first field its decoder does not take, and at malformed input, it hands the
rest of the struct to ``read_fields``, the one table-driven field loop.
Both are held here to :class:`Reference`, a field visitor written over the
test's own schema (one protocol call per value, nested structs included):
the same bytes out, the same struct back, unknown fields skipped alike, and
the same exception for every truncated or corrupted message.  The sha256
pins at the bottom hold the Echo and HatKV messages to the bytes they had
before the compiled codec existed.
"""

import hashlib
import itertools
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.atb.idl import load_atb_module
from repro.hatkv import load_hatkv_module
from repro.idl import load_idl
from repro.thrift import (TBinaryProtocol, TMemoryBuffer, TMessageType,
                          TProtocolException, TType)


class Reference:
    """The per-value field visitor over the binary format, driven by
    ``{struct name: [FieldSpec]}``: a field is read when its id and wire
    type match a declared field (the first one), skipped otherwise, and
    every value -- a nested struct's fields too -- is one ``TBinaryProtocol``
    call.  Message headers are read value by value as well."""

    def __init__(self, mod, structs):
        self.fields = {getattr(mod, name): fields
                       for name, fields in structs.items()}
        self.classes = {name: getattr(mod, name) for name in structs}

    @staticmethod
    def read_message_begin(prot):
        return prot._read_message_fields()

    def write(self, s, prot):
        name = type(s).__name__
        prot.write_struct_begin(name)
        for f in self.fields[type(s)]:
            value = getattr(s, f.name)
            if value is None and f.required == "required":
                raise TProtocolException(
                    TProtocolException.INVALID_DATA,
                    f"required field {name}.{f.name} is unset")
            if value is not None:
                prot.write_field_begin(f.name, ttype(f.type), f.fid)
                self.write_value(f.type, value, prot)
                prot.write_field_end()
        prot.write_field_stop()
        prot.write_struct_end()

    def write_value(self, t, value, prot):
        if t in self.classes:
            self.write(value, prot)
        elif isinstance(t, str):
            getattr(prot, "write_" + method(t))(value)
        elif t[0] == "map":
            prot.write_map_begin(ttype(t[1]), ttype(t[2]), len(value))
            for k, v in value.items():
                self.write_value(t[1], k, prot)
                self.write_value(t[2], v, prot)
            prot.write_map_end()
        else:
            getattr(prot, f"write_{t[0]}_begin")(ttype(t[1]), len(value))
            for e in value:
                self.write_value(t[1], e, prot)
            getattr(prot, f"write_{t[0]}_end")()

    def read(self, cls, prot):
        s = cls()
        prot.read_struct_begin()
        while True:
            _name, ftype, fid = prot.read_field_begin()
            if ftype == TType.STOP:
                break
            for f in self.fields[cls]:
                if (f.fid, ttype(f.type)) == (fid, ftype):
                    setattr(s, f.name, self.read_value(f.type, prot))
                    break
            else:
                prot.skip(ftype)
            prot.read_field_end()
        prot.read_struct_end()
        return s

    def read_value(self, t, prot):
        if t in self.classes:
            return self.read(self.classes[t], prot)
        if isinstance(t, str):
            return getattr(prot, "read_" + method(t))()
        if t[0] == "map":
            _kt, _vt, size = prot.read_map_begin()
            out = {}
            for _ in range(size):
                k = self.read_value(t[1], prot)
                out[k] = self.read_value(t[2], prot)
            prot.read_map_end()
            return out
        _et, size = getattr(prot, f"read_{t[0]}_begin")()
        out = [] if t[0] == "list" else set()
        add = out.append if t[0] == "list" else out.add
        for _ in range(size):
            add(self.read_value(t[1], prot))
        getattr(prot, f"read_{t[0]}_end")()
        return out


def compiled(data: bytes = b"") -> TBinaryProtocol:
    return TBinaryProtocol(TMemoryBuffer(data))


def encode(struct, ref: Optional[Reference] = None) -> bytes:
    """A ``Call`` message carrying ``struct``, written by its compiled
    codec, or by ``ref``."""
    prot = compiled()
    prot.write_message_begin("Call", TMessageType.CALL, 7)
    if ref is None:
        struct.write(prot)
    else:
        ref.write(struct, prot)
    prot.write_message_end()
    return prot.trans.getvalue()


class Raised(NamedTuple):
    cls: type
    code: Optional[int]         # TException.type
    message: str


def decode(cls, data: bytes, ref: Optional[Reference] = None):
    """(header, struct, offset reached), or what was raised, decoding
    ``data`` as ``cls`` through its ``read``, or through ``ref``."""
    prot = compiled(data)
    try:
        if ref is None:
            head = prot.read_message_begin()
            out = cls().read(prot)
        else:
            head = ref.read_message_begin(prot)
            out = ref.read(cls, prot)
    except Exception as exc:                       # noqa: BLE001
        return Raised(type(exc), getattr(exc, "type", None), str(exc))
    return head, out, prot.trans.rpos


def alike(ref: Reference, cls, data: bytes):
    """The outcome of decoding ``data`` as ``cls`` through its ``read``,
    after checking ``ref``'s is the same: the same error down to its
    message, or the same struct down to set and dict order (``repr``: a
    NaN a corruption produced equals itself there)."""
    got, want = decode(cls, data), decode(cls, data, ref)
    if isinstance(got, Raised) or isinstance(want, Raised):
        assert got == want
    else:
        assert (got[0], repr(got[1]), got[2]) == \
            (want[0], repr(want[1]), want[2])
    return got


# -- random schemas ----------------------------------------------------------

SCALARS = ("bool", "byte", "i8", "i16", "i32", "i64", "double", "string",
           "binary", "Color")
HASHABLE = ("bool", "byte", "i16", "i32", "i64", "string", "binary", "Color")
ENUM = "enum Color { RED = 1, GREEN = 2, BLUE = 7 }"


def types(depth: int, inner: bool):
    """Type trees: a scalar name, "Inner", or ("list"|"set"|"map", ...)."""
    base = st.sampled_from(SCALARS + (("Inner",) if inner else ()))
    if depth == 0:
        return base
    sub = types(depth - 1, inner)
    return st.one_of(
        base,
        sub.map(lambda t: ("list", t)),
        st.sampled_from(HASHABLE).map(lambda t: ("set", t)),
        st.tuples(st.sampled_from(HASHABLE), sub).map(
            lambda kv: ("map", *kv)))


def idl_type(t) -> str:
    if isinstance(t, str):
        return t
    return f"{t[0]}<{', '.join(idl_type(a) for a in t[1:])}>"


_WIRE = {"byte": "i8", "Color": "i32", "binary": "string"}


def wire_type(t) -> str:
    """What a field header says about a type (its TType)."""
    return t[0] if isinstance(t, tuple) else _WIRE.get(t, t)


_TTYPE = {"bool": TType.BOOL, "i8": TType.BYTE, "i16": TType.I16,
          "i32": TType.I32, "i64": TType.I64, "double": TType.DOUBLE,
          "string": TType.STRING, "list": TType.LIST, "set": TType.SET,
          "map": TType.MAP}


def ttype(t) -> int:
    """The TType of a type tree (any other name is a struct)."""
    return _TTYPE.get(wire_type(t), TType.STRUCT)


def method(t: str) -> str:
    """The suffix of a scalar's ``TBinaryProtocol`` read/write method."""
    return {"i8": "byte", "Color": "i32"}.get(t, t)


_SCALAR_VALUES = {
    "bool": st.booleans(),
    "byte": st.integers(-2**7, 2**7 - 1),
    "i8": st.integers(-2**7, 2**7 - 1),
    "i16": st.integers(-2**15, 2**15 - 1),
    "i32": st.integers(-2**31, 2**31 - 1),
    "i64": st.integers(-2**63, 2**63 - 1),
    "double": st.floats(allow_nan=False),
    "string": st.text(max_size=8),
    "binary": st.binary(max_size=12),
    "Color": st.sampled_from([1, 2, 7]),
}


def values(t, mod):
    if isinstance(t, str):
        if t == "Inner":
            return st.fixed_dictionaries(
                {f.name: st.none() | values(f.type, mod)
                 for f in mod.INNER}).map(lambda kw: mod.Inner(**kw))
        return _SCALAR_VALUES[t]
    if t[0] == "list":
        return st.lists(values(t[1], mod), max_size=3)
    if t[0] == "set":
        return st.sets(values(t[1], mod), max_size=3)
    return st.dictionaries(values(t[1], mod), values(t[2], mod), max_size=3)


class FieldSpec:
    def __init__(self, fid, name, type_, required):
        self.fid, self.name, self.type, self.required = \
            fid, name, type_, required

    def idl(self) -> str:
        req = f"{self.required} " if self.required else ""
        return f"    {self.fid}: {req}{idl_type(self.type)} {self.name},"


@st.composite
def schemas(draw):
    """(inner fields, outer fields, wide fields): ``Wide`` is ``Outer`` with
    some fields retyped under the same id and new ids mixed in -- what an
    old reader meets from a newer writer."""
    ids = st.integers(-40, 32767).filter(bool)
    # up to 3 inner fields, 5 outer ones and 5 new ones in Wide
    fids = draw(st.lists(ids, min_size=13, max_size=13, unique=True))
    pool = iter(fids)
    inner = [FieldSpec(next(pool), f"i{k}", draw(types(1, False)), None)
             for k in range(draw(st.integers(1, 3)))]
    outer = [FieldSpec(next(pool), f"o{k}", draw(types(2, True)),
                       draw(st.sampled_from([None, "optional", "required"])))
             for k in range(draw(st.integers(1, 5)))]
    wide = []
    for f in outer:
        if draw(st.booleans()):
            wide.append(FieldSpec(next(pool), f"x{len(wide)}",
                                  draw(types(1, True)), None))
        retyped = draw(types(1, True))
        keep = (draw(st.integers(0, 3)) > 0
                or wire_type(retyped) == wire_type(f.type))
        wide.append(f if keep else FieldSpec(f.fid, f.name, retyped, None))
    return inner, outer, wide


_MODULES = itertools.count()


def load(inner, outer, wide):
    body = "\n".join([
        ENUM,
        "struct Inner {", *(f.idl() for f in inner), "}",
        "struct Outer {", *(f.idl() for f in outer), "}",
        "struct Wide {", *(f.idl() for f in wide), "}",
    ])
    mod = load_idl(body, f"codec_parity_{next(_MODULES)}")
    mod.INNER = inner
    mod.REF = Reference(mod, {"Inner": inner, "Outer": outer, "Wide": wide})
    return mod


def struct_values(fields, mod):
    return st.fixed_dictionaries({
        f.name: values(f.type, mod) if f.required == "required"
        else st.none() | values(f.type, mod)
        for f in fields})


@settings(max_examples=150, deadline=None)
@given(schemas(), st.data())
def test_compiled_codec_is_the_visitor(schema, data):
    inner, outer, wide = schema
    mod = load(inner, outer, wide)
    value = mod.Outer(**data.draw(struct_values(outer, mod), label="outer"))

    wire = encode(value)
    assert wire == encode(value, mod.REF)

    _head, got, end = alike(mod.REF, mod.Outer, wire)
    assert got == value and end == len(wire)

    # Unknown ids and retyped fields are skipped alike: what is left is
    # exactly Outer's share of Wide.
    w = mod.Wide(**data.draw(struct_values(wide, mod), label="wide"))
    kept = {f.name for f in outer if any(g is f for g in wide)}
    _head, got, _end = alike(mod.REF, mod.Outer, encode(w))
    assert got == mod.Outer(**{k: v for k, v in vars(w).items() if k in kept})

    # Every strict prefix fails, and fails alike.
    for k in range(len(wire)):
        assert isinstance(alike(mod.REF, mod.Outer, wire[:k]), Raised), k


#: what a corruption writes over the bytes at one offset: a byte, or a whole
#: i32 (a size, a length) made negative, huge or small
PATCHES = (b"\xff", b"\x0c", (-1).to_bytes(4, "big", signed=True),
           (2**31 - 1).to_bytes(4, "big"), (3).to_bytes(4, "big"))


@settings(max_examples=60, deadline=None)
@given(schemas(), st.data())
def test_corrupted_messages_decode_alike(schema, data):
    inner, outer, wide = schema
    mod = load(inner, outer, wide)
    value = mod.Outer(**data.draw(struct_values(outer, mod)))
    wire = encode(value)
    for at in range(len(wire)):
        for patch in PATCHES:
            alike(mod.REF, mod.Outer,
                  wire[:at] + patch + wire[at + len(patch):])


def test_binary_length_is_the_bytes_written():
    """A multi-byte memoryview's ``len`` counts items, not bytes: both
    paths prefix the bytes they write with their own length."""
    mod = load_idl("struct S {\n 1: binary b,\n 2: list<binary> l,\n"
                   " 3: map<binary, binary> m\n}", "codec_parity_views")
    ref = Reference(mod, {"S": [
        FieldSpec(1, "b", "binary", None),
        FieldSpec(2, "l", ("list", "binary"), None),
        FieldSpec(3, "m", ("map", "binary", "binary"), None)]})
    raw = bytes(range(16))
    view = memoryview(raw).cast("I")
    assert len(view) == 4
    as_bytes = encode(mod.S(b=raw, l=[raw], m={raw: raw}))
    for writer in (None, ref):
        wire = encode(mod.S(b=view, l=[view], m={view.tobytes(): view}),
                      writer)
        assert wire == as_bytes
        _head, got, end = alike(ref, mod.S, wire)
        assert got == mod.S(b=raw, l=[raw], m={raw: raw})
        assert end == len(wire)


def test_message_header_failures_match_the_visitor():
    good = encode(load_idl("struct E {}", "codec_parity_empty").E())
    cases = [b"", b"\x80", b"\x00\x00\x00\x07garbage!", b"\x80\x02\x00\x01",
             b"\x80\x01\x00\x01\xff\xff\xff\xff", good[:9],
             b"\x80\x01\x00\x01\x00\x00\x00\x02\xff\xfe\x00\x00\x00\x01",
             good]
    for data in cases:
        outcomes = []
        for read in (TBinaryProtocol.read_message_begin,
                     Reference.read_message_begin):
            prot = compiled(data)
            try:
                outcomes.append((read(prot), prot.trans.rpos))
            except Exception as exc:               # noqa: BLE001
                outcomes.append(Raised(type(exc), getattr(exc, "type", None),
                                       str(exc)))
        assert outcomes[0] == outcomes[1], data


# -- the bytes of the workloads' messages, pinned --------------------------

KEY = b"user%020d" % 42
VALUE = bytes(i % 251 for i in range(1000))
KEYS = [b"user%020d" % i for i in range(10)]
VALUES = [bytes((i + j) % 251 for j in range(1000)) for i in range(10)]
PAYLOAD = bytes(range(64))


def pinned_messages():
    """name -> (request bytes, reply bytes), written through the binary
    protocol exactly as a client stub and a processor write them."""
    atb = load_atb_module(goal="latency", payload=64, concurrency=1)
    kv = load_hatkv_module("function", concurrency=48)
    cases = {
        "Echo": (atb, atb.Echo_args(payload=PAYLOAD),
                 atb.Echo_result(success=PAYLOAD)),
        "Get": (kv, kv.Get_args(key=KEY), kv.Get_result(
            success=kv.GetResult(found=True, value=VALUE))),
        "Get/cached": (kv, kv.Get_args(key=KEY), kv.Get_result(
            success=kv.GetResult(found=True, value=VALUE, version=3,
                                 lease=2.5e-4))),
        "Put": (kv, kv.Put_args(key=KEY, value=VALUE), kv.Put_result()),
        "MultiGet": (kv, kv.MultiGet_args(keys=KEYS),
                     kv.MultiGet_result(success=VALUES)),
        "MultiPut": (kv, kv.MultiPut_args(keys=KEYS, values=VALUES),
                     kv.MultiPut_result()),
    }
    out = {}
    for name, (_mod, args, result) in cases.items():
        fn = name.split("/")[0]
        wire = []
        for mtype, struct in ((TMessageType.CALL, args),
                              (TMessageType.REPLY, result)):
            buf = TMemoryBuffer()
            prot = TBinaryProtocol(buf)
            prot.write_message_begin(fn, mtype, 7)
            struct.write(prot)
            prot.write_message_end()
            wire.append(buf.getvalue())
        out[name] = tuple(wire)
    return out


#: sha256 of (request, reply), captured before the compiled codec existed
PINNED = {
    "Echo": ("d77c0009624275109dc47ed03cae63cef98fbd7459cbaa4007d180d2d0835f74",
             "e3d39267382b5b49470e0bfc0af83a3281078717bdcb4f3820e6c99723f6080f"),
    "Get": ("68988eec6a5e75f430eef264d8b140be8fc2e4b8106f570647c6924f5bae6e4b",
            "935c0e6578cc201bf5cec2ee149bfdf6a716bea8c06b6905120527ac45a2711c"),
    "Get/cached": (
        "68988eec6a5e75f430eef264d8b140be8fc2e4b8106f570647c6924f5bae6e4b",
        "8cd858aa2f6bccd8c289553b7bbb83aec8a174c8ab38f4c0270477ef8edd200f"),
    "Put": ("925c836bd6aad0bd1f7e18c43e7a31170957bc394eceb9ef38da8f2e2dafa261",
            "385937f6a6b982e33f9c84f29d0866e6d7405a457e8f1c99b842691088364349"),
    "MultiGet": (
        "ff64316ddb185c7d8b1940ed720c1579ba2a78ec0e41a6cb32fe2246a40d6b66",
        "b6ce4d7f552d84db4ec58a6a25145652a778cd0ec041602011cbc5d88785f5cc"),
    "MultiPut": (
        "f09cdf30fe01943ca19e44cf8dcaa26bb82989e6e5a9eb46563cb3d5c908954d",
        "6815d037fe28912af393d041dc950944b55a7e028ac1b72523ac314de00b672c"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_workload_messages_are_byte_identical(name):
    request, reply = pinned_messages()[name]
    assert (hashlib.sha256(request).hexdigest(),
            hashlib.sha256(reply).hexdigest()) == PINNED[name]
