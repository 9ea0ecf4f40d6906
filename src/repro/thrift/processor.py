"""Processor and client plumbing used by IDL-generated code."""

from __future__ import annotations

import inspect
from typing import Callable, Dict

from repro.thrift.errors import TApplicationException
from repro.thrift.protocol.binary import TBinaryProtocol
from repro.thrift.ttypes import TMessageType, TType

__all__ = ["TClient", "TProcessor"]


class TProcessor:
    """One service's dispatch table.

    Generated subclasses populate ``self._process_map`` with per-method
    coroutines ``fn(seqid, prot) -> bool`` returning whether a reply was
    written (oneway methods return False).  One protocol serves both ways,
    as on a Thrift server's connection: the request is read off it, the
    reply written onto it.
    """

    def __init__(self, handler):
        self._handler = handler
        self._process_map: Dict[str, Callable] = {}
        # Trace context of the request currently entering process() --
        # consumed exactly once by _invoke().  Safe despite the processor
        # being shared across interleaved connections: there is no sim
        # yield between process() entry and _invoke() entry (argument
        # deserialization is synchronous memory-buffer reads).
        self._trace_ctx = None
        # handler function -> "is a generator function", decided once per
        # function (see _invoke).
        self._is_gen: Dict[Callable, bool] = {}

    def process(self, prot: TBinaryProtocol):
        """Coroutine: handle one buffered inbound message.

        Returns True when a reply message was written (and must be flushed).
        """
        self._trace_ctx = getattr(prot.trans, "trace_ctx", None)
        name, mtype, seqid = prot.read_message_begin()
        fn = self._process_map.get(name)
        if fn is None:
            prot.skip(TType.STRUCT)
            prot.read_message_end()
            exc = TApplicationException(TApplicationException.UNKNOWN_METHOD,
                                        f"unknown method {name!r}")
            prot.write_message_begin(name, TMessageType.EXCEPTION, seqid)
            exc.write(prot)
            prot.write_message_end()
            return True
        return (yield from fn(seqid, prot))

    def _invoke(self, method_name: str, *args):
        """Coroutine: call the handler method (plain or generator)."""
        ctx = self._trace_ctx
        self._trace_ctx = None
        method = getattr(self._handler, method_name)
        if ctx is not None:
            # Open-stage so backend spans recorded inside the handler nest
            # under it; ctx stays valid across yields because it was
            # captured into a local before the first one.
            ctx.open_stage("handler", ctx.now(), method=method_name)
        # Plain or coroutine is a property of the function, so it is decided
        # once per function object -- the one behind the bound method, so a
        # handler method swapped at run time is classified afresh.  It must
        # stay ``isgeneratorfunction`` and never "did the call return a
        # generator": a plain method that merely *returns* a generator is
        # plain, its result goes back to the caller unrun (which is why
        # handlers ``yield from`` their helpers, see hatkv/server.py).
        fn = getattr(method, "__func__", method)
        is_gen = self._is_gen.get(fn)
        if is_gen is None:
            is_gen = self._is_gen[fn] = inspect.isgeneratorfunction(method)
        if is_gen:
            result = yield from method(*args)
        else:
            result = method(*args)
        if ctx is not None:
            ctx.close_stage(ctx.now())
        return result


class TClient:
    """Base for generated clients: seqid bookkeeping + send/recv framing."""

    def __init__(self, prot: TBinaryProtocol):
        self._prot = prot
        self._seqid = 0

    def _send(self, name: str, args, mtype: int = TMessageType.CALL):
        """Coroutine: serialize and flush one call message."""
        prot = self._prot
        self._seqid += 1
        prot.write_message_begin(name, mtype, self._seqid)
        args.write(prot)
        prot.write_message_end()
        yield from prot.trans.flush()

    def _recv(self, name: str, result):
        """Coroutine: await and deserialize the reply into ``result``."""
        prot = self._prot
        trans = prot.trans
        yield from trans.ready()
        try:
            rname, mtype, seqid = prot.read_message_begin()
            if mtype == TMessageType.EXCEPTION:
                exc = TApplicationException()
                exc.read(prot)
                prot.read_message_end()
                raise exc
            if seqid != self._seqid:
                raise TApplicationException(
                    TApplicationException.BAD_SEQUENCE_ID,
                    f"expected seqid {self._seqid}, got {seqid}")
            if rname != name:
                raise TApplicationException(
                    TApplicationException.WRONG_METHOD_NAME,
                    f"expected reply to {name!r}, got {rname!r}")
            result.read(prot)
            prot.read_message_end()
            return result
        finally:
            # Decoded or refused, the reply is read: the transport does not
            # keep it until the next one lands.
            trans.rbuf = b""
