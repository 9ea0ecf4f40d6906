"""A from-scratch Apache Thrift-compatible RPC stack, cut to the one path
HatRPC's traffic uses.

This substitutes for the C++ Apache Thrift library the paper extends.  It
mirrors Thrift's layering (Figure 2 of the paper):

* **protocol** -- TBinaryProtocol, the strict binary serialization of the
  Thrift type system;
* **transport** -- TMemoryBuffer, TFramedTransport, and TSocket over the
  simulated kernel-TCP (IPoIB) stack;
* **server** -- TThreadedServer, one process per connection;
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
    TFramedTransport,
    TMemoryBuffer,
    TServerSocket,
    TSocket,
    TTransport,
)
from repro.thrift.protocol import TBinaryProtocol
from repro.thrift.processor import TClient, TProcessor
from repro.thrift.server import TThreadedServer

__all__ = [
    "TApplicationException",
    "TBinaryProtocol",
    "TClient",
    "TFramedTransport",
    "TMemoryBuffer",
    "TMessageType",
    "TProcessor",
    "TProtocolException",
    "TServerSocket",
    "TSocket",
    "TThreadedServer",
    "TTransport",
    "TTransportException",
    "TType",
]
