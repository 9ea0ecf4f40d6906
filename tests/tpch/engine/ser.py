"""Table serialization over TBinaryProtocol (the engine's exchange format).

Intermediate results travel between workers and the coordinator as Thrift
binary: per column a name, a kind tag ('i' int64 / 'f' float64 / 's' str),
and the value list.  Real bytes, so exchange volumes in the simulation are
the true serialized sizes.
"""

from __future__ import annotations

import numpy as np

from repro.thrift import TBinaryProtocol, TMemoryBuffer
from .table import Table

__all__ = ["deserialize_table", "serialize_table"]


def serialize_table(t: Table) -> bytes:
    buf = TMemoryBuffer()
    prot = TBinaryProtocol(buf)
    prot.write_i32(len(t.names))
    prot.write_i32(len(t))
    for name in t.names:
        col = t[name]
        prot.write_string(name)
        if col.dtype.kind in "iu":
            prot.write_byte(ord("i"))
            for v in col.tolist():
                prot.write_i64(int(v))
        elif col.dtype.kind == "f":
            prot.write_byte(ord("f"))
            for v in col.tolist():
                prot.write_double(float(v))
        else:
            prot.write_byte(ord("s"))
            for v in col.tolist():
                prot.write_string(str(v))
    return buf.getvalue()


def deserialize_table(data: bytes) -> Table:
    prot = TBinaryProtocol(TMemoryBuffer(data))
    ncols = prot.read_i32()
    nrows = prot.read_i32()
    cols = {}
    for _ in range(ncols):
        name = prot.read_string()
        kind = chr(prot.read_byte())
        if kind == "i":
            cols[name] = np.asarray([prot.read_i64() for _ in range(nrows)],
                                    dtype=np.int64)
        elif kind == "f":
            cols[name] = np.asarray([prot.read_double()
                                     for _ in range(nrows)])
        else:
            cols[name] = np.asarray([prot.read_string()
                                     for _ in range(nrows)], dtype=object)
    if not cols:
        return Table({})
    return Table(cols)
