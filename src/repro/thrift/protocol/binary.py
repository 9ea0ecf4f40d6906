"""TBinaryProtocol: the fixed-width big-endian wire format (strict mode),
the one serialization protocol of every HatRPC and TCP channel.

Generated structs read and write themselves through the binary codec
compiled for their field list (see :mod:`repro.idl.codegen`); the message
header is read and written here in one step each.  The per-value methods
below are the generic path: what ``skip``, the application-exception struct
and ``read_fields`` call.  ``read_fields`` is the one field loop: a
compiled decoder hands it the rest of a struct at the first field it does
not take (unknown, retyped, out of order) or at malformed input, with the
struct's generated ``_SPEC_<S>`` table to read by.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Tuple

from repro.thrift.errors import TProtocolException
from repro.thrift.ttypes import TType

__all__ = ["TBinaryProtocol", "read_fields"]

_I8 = struct.Struct("!b")
_I16 = struct.Struct("!h")
_I32 = struct.Struct("!i")
_I64 = struct.Struct("!q")
_DOUBLE = struct.Struct("!d")
_U32 = struct.Struct("!I")
#: header word (VERSION_1 | mtype, signed) and method-name length
_HEAD = struct.Struct("!ii")

VERSION_1 = 0x80010000
VERSION_MASK = 0xFFFF0000

#: (name, mtype) -> the bytes of a message header up to its seqid: header
#: word, name length, name.  Bounded: method names are few, but nothing
#: stops a caller from minting one per call.
_PREFIXES: Dict[Tuple[str, int], bytes] = {}
_PREFIXES_MAX = 4096


class TBinaryProtocol:
    """Strict binary protocol, wire-compatible with Apache Thrift.

    All methods are synchronous; blocking happens at the transport's
    ``flush()``/``ready()`` message boundaries.
    """

    def __init__(self, trans):
        self.trans = trans

    # -- message -----------------------------------------------------------
    def write_message_begin(self, name: str, mtype: int, seqid: int):
        prefix = _PREFIXES.get((name, mtype))
        if prefix is None:
            word = _U32.pack(VERSION_1 | mtype)
            encoded = name.encode("utf-8")
            prefix = word + _I32.pack(len(encoded)) + encoded
            if len(_PREFIXES) < _PREFIXES_MAX:
                _PREFIXES[name, mtype] = prefix
        self.trans.write(prefix + _I32.pack(seqid))

    def read_message_begin(self):
        trans = self.trans
        buf, pos = trans.rbuf, trans.rpos
        try:
            word, n = _HEAD.unpack_from(buf, pos)
            if word & VERSION_MASK == VERSION_1 and n >= 0:
                end = pos + 8 + n
                (seqid,) = _I32.unpack_from(buf, end)
                name = buf[pos + 8:end].decode("utf-8")
                trans.rpos = end + 4
                return name, word & 0xFF, seqid
        except (struct.error, UnicodeDecodeError):
            pass
        # Short or malformed: read it value by value, which raises exactly
        # what a malformed header has always raised.
        return self._read_message_fields()

    def _read_message_fields(self):
        sz = self.read_i32()
        if sz >= 0:
            raise TProtocolException(TProtocolException.BAD_VERSION,
                                     "missing version in message header")
        version = sz & VERSION_MASK
        if version != VERSION_1:
            raise TProtocolException(TProtocolException.BAD_VERSION,
                                     f"bad version {version:#x}")
        mtype = sz & 0xFF
        name = self.read_string()
        seqid = self.read_i32()
        return name, mtype, seqid

    def write_message_end(self):
        pass

    def read_message_end(self):
        pass

    # -- struct / field ------------------------------------------------------
    def write_struct_begin(self, name: str):
        pass

    def write_struct_end(self):
        pass

    def write_field_begin(self, name: str, ttype: int, fid: int):
        self.write_byte(ttype)
        self.write_i16(fid)

    def write_field_end(self):
        pass

    def write_field_stop(self):
        self.write_byte(TType.STOP)

    def read_struct_begin(self):
        pass

    def read_struct_end(self):
        pass

    def read_field_begin(self):
        ttype = self.read_byte()
        if ttype == TType.STOP:
            return None, ttype, 0
        fid = self.read_i16()
        return None, ttype, fid

    def read_field_end(self):
        pass

    # -- containers --------------------------------------------------------------
    def write_map_begin(self, ktype: int, vtype: int, size: int):
        self.write_byte(ktype)
        self.write_byte(vtype)
        self.write_i32(size)

    def write_map_end(self):
        pass

    def read_map_begin(self):
        ktype = self.read_byte()
        vtype = self.read_byte()
        size = self.read_i32()
        self._check_size(size)
        return ktype, vtype, size

    def read_map_end(self):
        pass

    def write_list_begin(self, etype: int, size: int):
        self.write_byte(etype)
        self.write_i32(size)

    def write_list_end(self):
        pass

    def read_list_begin(self):
        etype = self.read_byte()
        size = self.read_i32()
        self._check_size(size)
        return etype, size

    def read_list_end(self):
        pass

    write_set_begin = write_list_begin
    write_set_end = write_list_end
    read_set_begin = read_list_begin
    read_set_end = read_list_end

    # -- scalars --------------------------------------------------------------------
    def write_bool(self, v: bool):
        self.write_byte(1 if v else 0)

    def write_byte(self, v: int):
        self.trans.write(_I8.pack(v))

    def write_i16(self, v: int):
        self.trans.write(_I16.pack(v))

    def write_i32(self, v: int):
        self.trans.write(_I32.pack(v))

    def write_i64(self, v: int):
        self.trans.write(_I64.pack(v))

    def write_double(self, v: float):
        self.trans.write(_DOUBLE.pack(v))

    def write_string(self, v: str):
        self.write_binary(v.encode("utf-8"))

    def write_binary(self, v: bytes):
        # The length is that of the bytes written: ``len`` of a multi-byte
        # memoryview counts its items.
        if type(v) is not bytes:
            v = bytes(v)
        self.write_i32(len(v))
        self.trans.write(v)

    def read_bool(self) -> bool:
        return self.read_byte() != 0

    def read_byte(self) -> int:
        return _I8.unpack(self.trans.read_all(1))[0]

    def read_i16(self) -> int:
        return _I16.unpack(self.trans.read_all(2))[0]

    def read_i32(self) -> int:
        return _I32.unpack(self.trans.read_all(4))[0]

    def read_i64(self) -> int:
        return _I64.unpack(self.trans.read_all(8))[0]

    def read_double(self) -> float:
        return _DOUBLE.unpack(self.trans.read_all(8))[0]

    def read_string(self) -> str:
        return self.read_binary().decode("utf-8")

    def read_binary(self) -> bytes:
        size = self.read_i32()
        self._check_size(size)
        return self.trans.read_all(size)

    @staticmethod
    def _check_size(size: int):
        if size < 0:
            raise TProtocolException(TProtocolException.NEGATIVE_SIZE,
                                     f"negative size {size}")

    # -- generic ------------------------------------------------------------------------
    def skip(self, ttype: int) -> None:
        """Consume and discard one value of the given type."""
        if ttype == TType.BOOL:
            self.read_bool()
        elif ttype == TType.BYTE:
            self.read_byte()
        elif ttype == TType.I16:
            self.read_i16()
        elif ttype == TType.I32:
            self.read_i32()
        elif ttype == TType.I64:
            self.read_i64()
        elif ttype == TType.DOUBLE:
            self.read_double()
        elif ttype == TType.STRING:
            self.read_binary()
        elif ttype == TType.STRUCT:
            read_fields(self, None, {})     # every field skipped
        elif ttype == TType.MAP:
            ktype, vtype, size = self.read_map_begin()
            for _ in range(size):
                self.skip(ktype)
                self.skip(vtype)
            self.read_map_end()
        elif ttype in (TType.SET, TType.LIST):     # one wire form
            etype, size = self.read_list_begin()
            for _ in range(size):
                self.skip(etype)
            self.read_list_end()
        else:
            raise TProtocolException(TProtocolException.INVALID_DATA,
                                     f"cannot skip type {ttype}")


def read_fields(iprot: TBinaryProtocol, s: Any, spec: Dict) -> Any:
    """Read struct ``s`` value by value through its STOP; returns ``s``.

    ``spec`` maps ``(field id, wire type)`` to ``(attribute, value type)``,
    and any other field is skipped.  A value type is a read-method suffix
    (``'i32'``, ``'binary'``...), ``('list'|'set', elem)``, ``('map', k,
    v)`` or a struct class; elements are read by their declared type, not
    by the type bytes of their container's header.
    """
    iprot.read_struct_begin()
    while True:
        _name, ftype, fid = iprot.read_field_begin()
        if ftype == TType.STOP:
            break
        field = spec.get((fid, ftype))
        if field is None:
            iprot.skip(ftype)
        else:
            setattr(s, field[0], _read_typed(iprot, field[1]))
        iprot.read_field_end()
    iprot.read_struct_end()
    return s


def _read_typed(iprot: TBinaryProtocol, vtype: Any) -> Any:
    if vtype.__class__ is str:
        return getattr(iprot, "read_" + vtype)()
    if vtype.__class__ is not tuple:
        return vtype().read(iprot)
    if vtype[0] == "map":
        items: Dict[Any, Any] = {}
        for _ in range(iprot.read_map_begin()[2]):
            key = _read_typed(iprot, vtype[1])
            items[key] = _read_typed(iprot, vtype[2])
        iprot.read_map_end()
        return items
    if vtype[0] == "list":
        elems = [_read_typed(iprot, vtype[1])
                 for _ in range(iprot.read_list_begin()[1])]
        iprot.read_list_end()
        return elems
    members = {_read_typed(iprot, vtype[1])
               for _ in range(iprot.read_set_begin()[1])}
    iprot.read_set_end()
    return members
