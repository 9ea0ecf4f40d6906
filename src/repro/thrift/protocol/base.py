"""Abstract serialization protocol + generic skip(), and the decorator base
for protocol wrappers."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.thrift.errors import TProtocolException
from repro.thrift.ttypes import TType

__all__ = ["TProtocol", "TProtocolDecorator"]


class TProtocol:
    """Abstract Thrift protocol over a transport.

    All methods are synchronous; blocking happens at the transport's
    ``flush()``/``ready()`` message boundaries.
    """

    def __init__(self, trans):
        self.trans = trans

    # -- message -----------------------------------------------------------
    def write_message_begin(self, name: str, mtype: int, seqid: int): ...
    def write_message_end(self): ...
    def read_message_begin(self) -> tuple[str, int, int]: ...
    def read_message_end(self): ...

    # -- struct / field ------------------------------------------------------
    def write_struct_begin(self, name: str): ...
    def write_struct_end(self): ...
    def write_field_begin(self, name: str, ttype: int, fid: int): ...
    def write_field_end(self): ...
    def write_field_stop(self): ...
    def read_struct_begin(self): ...
    def read_struct_end(self): ...
    def read_field_begin(self) -> tuple[str | None, int, int]: ...
    def read_field_end(self): ...

    # -- containers --------------------------------------------------------------
    def write_map_begin(self, ktype: int, vtype: int, size: int): ...
    def write_map_end(self): ...
    def write_list_begin(self, etype: int, size: int): ...
    def write_list_end(self): ...
    def write_set_begin(self, etype: int, size: int): ...
    def write_set_end(self): ...
    def read_map_begin(self) -> tuple[int, int, int]: ...
    def read_map_end(self): ...
    def read_list_begin(self) -> tuple[int, int]: ...
    def read_list_end(self): ...
    def read_set_begin(self) -> tuple[int, int]: ...
    def read_set_end(self): ...

    # -- scalars --------------------------------------------------------------------
    def write_bool(self, v: bool): ...
    def write_byte(self, v: int): ...
    def write_i16(self, v: int): ...
    def write_i32(self, v: int): ...
    def write_i64(self, v: int): ...
    def write_double(self, v: float): ...
    def write_string(self, v: str): ...
    def write_binary(self, v: bytes): ...
    def read_bool(self) -> bool: ...
    def read_byte(self) -> int: ...
    def read_i16(self) -> int: ...
    def read_i32(self) -> int: ...
    def read_i64(self) -> int: ...
    def read_double(self) -> float: ...
    def read_string(self) -> str: ...
    def read_binary(self) -> bytes: ...

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
            self.read_struct_begin()
            while True:
                _n, ftype, _fid = self.read_field_begin()
                if ftype == TType.STOP:
                    break
                self.skip(ftype)
                self.read_field_end()
            self.read_struct_end()
        elif ttype == TType.MAP:
            ktype, vtype, size = self.read_map_begin()
            for _ in range(size):
                self.skip(ktype)
                self.skip(vtype)
            self.read_map_end()
        elif ttype == TType.SET:
            etype, size = self.read_set_begin()
            for _ in range(size):
                self.skip(etype)
            self.read_set_end()
        elif ttype == TType.LIST:
            etype, size = self.read_list_begin()
            for _ in range(size):
                self.skip(etype)
            self.read_list_end()
        else:
            raise TProtocolException(TProtocolException.INVALID_DATA,
                                     f"cannot skip type {ttype}")


_DECORATED: Dict[Tuple[type, type], type] = {}


class TProtocolDecorator:
    """A protocol wrapper that *is* the protocol it wraps, with a few
    methods overridden (Apache Thrift's ``TProtocolDecorator``).

    ``Wrapper(protocol, ...)`` builds an instance of a class deriving from
    both ``Wrapper`` and ``type(protocol)`` -- one such class per pair, made
    once -- that starts out with ``protocol``'s state.  Every method it does
    not override is the wrapped protocol's own, reached without a
    ``__getattr__`` hop, and ``isinstance(wrapper, TBinaryProtocol)`` holds
    when the wrapped protocol is binary, so generated structs take their
    compiled binary codec through a wrapper too.  An override reaches the
    wrapped protocol's method with ``super()``.  Subclasses initialise the
    shared state with ``TProtocolDecorator.__init__(self, protocol)``:
    decorators stack, and ``super().__init__`` would reach the next one's.
    """

    def __new__(cls, protocol, *args, **kwargs):
        key = (cls, type(protocol))
        decorated = _DECORATED.get(key)
        if decorated is None:
            decorated = _DECORATED[key] = type(cls.__name__, key, {})
        return object.__new__(decorated)

    def __init__(self, protocol) -> None:
        self.__dict__.update(protocol.__dict__)
