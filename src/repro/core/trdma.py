"""TRdma: the TSocket-compatible bridge between Thrift and the RDMA engine.

The paper keeps TRdma's programming model "fully compatible with that of
TSocket" so the generated code works unchanged over either transport
(Section 4.3).  Concretely:

* :class:`TRdma` is a :class:`~repro.thrift.transport.TTransport` whose
  ``flush()`` routes the buffered message through the hint-aware engine and
  whose ``read()`` serves the response -- so the IDL-generated ``TClient``
  stubs drive it exactly like a framed socket;
* :class:`HintedProtocol` is the ``TBinaryProtocol`` a client stub writes
  through: it hands its TRdma the method name at ``write_message_begin`` --
  the paper's dynamic-hint path ("caching the RPC function type at a high
  level and only pass hints when a new RPC function is invoked").
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import HatRpcEngine
from repro.thrift.protocol.binary import TBinaryProtocol
from repro.thrift.transport import TTransport
from repro.thrift.ttypes import TMessageType

__all__ = ["HintedProtocol", "TRdma"]

#: sentinel yielded by _AsyncTRdma.ready() -- pauses the generated stub
#: between its send and receive halves (see _AsyncTRdma).
_PAUSE = object()


class TRdma(TTransport):
    """Client-side message transport over a connected HatRpcEngine.

    Between ``write_message_begin`` and ``flush`` it holds what the engine
    reads of the call: the function name (its route), the oneway flag
    and the seqid (the idempotency gate)."""

    def __init__(self, engine: HatRpcEngine):
        super().__init__()
        self.engine = engine
        self._current_fn: Optional[str] = None
        self._current_oneway = False
        self._current_seqid: Optional[int] = None

    # -- routing state (set by HintedProtocol) ------------------------------
    def set_current_function(self, name: str, mtype: int,
                             seqid: Optional[int] = None) -> None:
        self._current_fn = name
        self._current_oneway = mtype == TMessageType.ONEWAY
        self._current_seqid = seqid

    # -- TTransport interface --------------------------------------------------
    def is_open(self) -> bool:
        return self.engine.is_open()

    def close(self) -> None:
        self.engine.close()

    def flush(self):
        if self._current_fn is None:
            raise RuntimeError(
                "TRdma.flush without a method context; write the message "
                "through HintedProtocol")
        resp = yield from self.engine.call(self._current_fn, self._take(),
                                           oneway=self._current_oneway,
                                           seqid=self._current_seqid)
        self._land(resp or b"")

    def ready(self):
        # The response was delivered synchronously by flush(); nothing to
        # await.  (RPC over RDMA is a single round trip; keeping ready() a
        # no-op preserves the TSocket-framed calling convention.)
        return
        yield  # pragma: no cover


class _AsyncTRdma(TRdma):
    """Capture transport for the asynchronous stub path.

    The generated stub methods are two-phase coroutines: serialize +
    ``flush`` (send), then ``ready`` + deserialize (receive).  This
    transport exploits that shape without touching the generated code:

    * ``flush()`` does NOT call the engine -- it captures
      ``(fn, message, oneway, seqid)`` for the caller to post via
      ``engine.call_async``;
    * ``ready()`` yields the :data:`_PAUSE` sentinel, so driving the stub
      generator with ``next()`` runs serialization and stops right between
      the halves.  When the response arrives, the caller lands it
      (:meth:`deliver`) and resumes the generator, which deserializes and
      returns the result (including throwing declared exceptions) exactly
      as the blocking path would.

    See :class:`repro.core.runtime.AsyncCaller` for the driver.
    """

    def __init__(self, engine: HatRpcEngine):
        super().__init__(engine)
        self.captured = None    # (fn, message, oneway, seqid)

    def flush(self):
        if self._current_fn is None:
            raise RuntimeError(
                "TRdma.flush without a method context; write the message "
                "through HintedProtocol")
        self.captured = (self._current_fn, self._take(),
                         self._current_oneway, self._current_seqid)
        return
        yield  # pragma: no cover

    def ready(self):
        yield _PAUSE

    def deliver(self, resp: bytes) -> None:
        """Load the response for the stub's receive half to read."""
        self._land(resp or b"")


class HintedProtocol(TBinaryProtocol):
    """The binary protocol over a TRdma, feeding it each call's method name.

    Being a ``TBinaryProtocol`` is what sends generated structs down their
    compiled binary codec.
    """

    def write_message_begin(self, name: str, mtype: int, seqid: int):
        self.trans.set_current_function(name, mtype, seqid)
        super().write_message_begin(name, mtype, seqid)
