"""Serialization protocols: TBinary, TCompact, TJSON."""

from repro.thrift.protocol.base import TProtocol, TProtocolDecorator
from repro.thrift.protocol.binary import TBinaryProtocol
from repro.thrift.protocol.compact import TCompactProtocol
from repro.thrift.protocol.json_proto import TJSONProtocol

__all__ = ["TBinaryProtocol", "TCompactProtocol", "TJSONProtocol", "TProtocol",
           "TProtocolDecorator"]
