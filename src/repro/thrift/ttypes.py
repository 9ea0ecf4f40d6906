"""The Thrift type system constants (wire-compatible values)."""

from __future__ import annotations

__all__ = ["TMessageType", "TType"]


class TType:
    """Thrift field type ids, matching Apache Thrift's wire values."""

    STOP = 0
    VOID = 1
    BOOL = 2
    BYTE = 3
    I08 = 3
    DOUBLE = 4
    I16 = 6
    I32 = 8
    I64 = 10
    STRING = 11
    BINARY = 11  # same wire type; distinction is codegen-level
    STRUCT = 12
    MAP = 13
    SET = 14
    LIST = 15


class TMessageType:
    CALL = 1
    REPLY = 2
    EXCEPTION = 3
    ONEWAY = 4
