"""A from-scratch Apache Thrift-compatible RPC stack.

This substitutes for the C++ Apache Thrift library the paper extends.  It
mirrors Thrift's layering (Figure 2 of the paper):

* **protocol** -- TBinary / TCompact / TJSON serialization of the Thrift
  type system;
* **transport** -- TMemoryBuffer, TFramedTransport, TBufferedTransport, and
  TSocket over the simulated kernel-TCP (IPoIB) stack;
* **server** -- TSimpleServer, TThreadedServer, TThreadPoolServer;
* **processor** -- dispatch glue used by IDL-generated code.

Blocking calls follow the repository-wide coroutine convention: anything
that can consume simulated time (``flush``, ``ready``, ``accept``, client
method stubs) is a generator driven with ``yield from``.

The HatRPC layer (:mod:`repro.core`) plugs in at the transport level with
TRdma, exactly as the paper describes.
"""

from repro.thrift.ttypes import TMessageType, TType
from repro.thrift.errors import (
    TApplicationException,
    TProtocolException,
    TTransportException,
)
from repro.thrift.transport import (
    TBufferedTransport,
    TFramedTransport,
    TMemoryBuffer,
    TServerSocket,
    TSocket,
    TTransport,
)
from repro.thrift.protocol import (
    TBinaryProtocol,
    TCompactProtocol,
    TJSONProtocol,
    TProtocol,
    TProtocolDecorator,
)
from repro.thrift.processor import TClient, TMultiplexedProcessor, TProcessor
from repro.thrift.server import (
    TServer,
    TSimpleServer,
    TThreadPoolServer,
    TThreadedServer,
)

__all__ = [
    "TApplicationException",
    "TBinaryProtocol",
    "TBufferedTransport",
    "TClient",
    "TCompactProtocol",
    "TFramedTransport",
    "TJSONProtocol",
    "TMemoryBuffer",
    "TMessageType",
    "TMultiplexedProcessor",
    "TProcessor",
    "TProtocol",
    "TProtocolDecorator",
    "TProtocolException",
    "TServer",
    "TServerSocket",
    "TSimpleServer",
    "TSocket",
    "TThreadPoolServer",
    "TThreadedServer",
    "TTransport",
    "TTransportException",
    "TType",
]
