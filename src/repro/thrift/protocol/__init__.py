"""Serialization protocol: TBinary."""

from repro.thrift.protocol.binary import TBinaryProtocol

__all__ = ["TBinaryProtocol"]
