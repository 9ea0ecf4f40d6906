"""Processor and client plumbing used by IDL-generated code."""

from __future__ import annotations

import inspect
from typing import Callable, Dict

from repro.thrift.errors import TApplicationException
from repro.thrift.protocol.base import TProtocol
from repro.thrift.ttypes import TMessageType, TType

__all__ = ["TClient", "TMultiplexedProcessor", "TMultiplexedProtocol",
           "TProcessor"]


class TProcessor:
    """One service's dispatch table.

    Generated subclasses populate ``self._process_map`` with per-method
    coroutines ``fn(seqid, iprot, oprot) -> bool`` returning whether a reply
    was written (oneway methods return False).
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

    def process(self, iprot: TProtocol, oprot: TProtocol):
        """Coroutine: handle one buffered inbound message.

        Returns True when a reply message was written (and must be flushed).
        """
        self._trace_ctx = getattr(iprot.trans, "trace_ctx", None)
        name, mtype, seqid = iprot.read_message_begin()
        fn = self._process_map.get(name)
        if fn is None:
            iprot.skip(TType.STRUCT)
            iprot.read_message_end()
            exc = TApplicationException(TApplicationException.UNKNOWN_METHOD,
                                        f"unknown method {name!r}")
            oprot.write_message_begin(name, TMessageType.EXCEPTION, seqid)
            exc.write(oprot)
            oprot.write_message_end()
            return True
        return (yield from fn(seqid, iprot, oprot))

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


class TMultiplexedProcessor(TProcessor):
    """Routes ``service:method`` calls to registered processors."""

    SEPARATOR = ":"

    def __init__(self):
        self._processors: Dict[str, TProcessor] = {}

    def register(self, service_name: str, processor: TProcessor) -> None:
        if service_name in self._processors:
            raise ValueError(f"service {service_name!r} already registered")
        self._processors[service_name] = processor

    def process(self, iprot: TProtocol, oprot: TProtocol):
        name, mtype, seqid = iprot.read_message_begin()
        if self.SEPARATOR not in name:
            exc = TApplicationException(
                TApplicationException.INVALID_MESSAGE_TYPE,
                f"multiplexed call without service prefix: {name!r}")
            iprot.skip(TType.STRUCT)
            iprot.read_message_end()
            oprot.write_message_begin(name, TMessageType.EXCEPTION, seqid)
            exc.write(oprot)
            oprot.write_message_end()
            return True
        service, method = name.split(self.SEPARATOR, 1)
        proc = self._processors.get(service)
        if proc is None:
            iprot.skip(TType.STRUCT)
            iprot.read_message_end()
            exc = TApplicationException(TApplicationException.UNKNOWN_METHOD,
                                        f"unknown service {service!r}")
            oprot.write_message_begin(name, TMessageType.EXCEPTION, seqid)
            exc.write(oprot)
            oprot.write_message_end()
            return True
        fn = proc._process_map.get(method)
        if fn is None:
            iprot.skip(TType.STRUCT)
            iprot.read_message_end()
            exc = TApplicationException(TApplicationException.UNKNOWN_METHOD,
                                        f"unknown method {method!r}")
            oprot.write_message_begin(name, TMessageType.EXCEPTION, seqid)
            exc.write(oprot)
            oprot.write_message_end()
            return True
        # The child processor's process() is bypassed, so hand it the trace
        # context directly (same synchronous window as TProcessor.process).
        proc._trace_ctx = getattr(iprot.trans, "trace_ctx", None)
        return (yield from fn(seqid, iprot, oprot))


class TMultiplexedProtocol:
    """Client-side wrapper prefixing the service name onto method names."""

    def __init__(self, protocol: TProtocol, service_name: str):
        self._proto = protocol
        self.service_name = service_name

    def write_message_begin(self, name: str, mtype: int, seqid: int):
        self._proto.write_message_begin(
            f"{self.service_name}{TMultiplexedProcessor.SEPARATOR}{name}",
            mtype, seqid)

    def __getattr__(self, item):
        return getattr(self._proto, item)


class TClient:
    """Base for generated clients: seqid bookkeeping + send/recv framing."""

    def __init__(self, iprot: TProtocol, oprot: TProtocol | None = None):
        self._iprot = iprot
        self._oprot = oprot or iprot
        self._seqid = 0

    def _send(self, name: str, args, mtype: int = TMessageType.CALL):
        """Coroutine: serialize and flush one call message."""
        self._seqid += 1
        self._oprot.write_message_begin(name, mtype, self._seqid)
        args.write(self._oprot)
        self._oprot.write_message_end()
        yield from self._oprot.trans.flush()

    def _recv(self, name: str, result):
        """Coroutine: await and deserialize the reply into ``result``."""
        yield from self._iprot.trans.ready()
        rname, mtype, seqid = self._iprot.read_message_begin()
        if mtype == TMessageType.EXCEPTION:
            exc = TApplicationException()
            exc.read(self._iprot)
            self._iprot.read_message_end()
            raise exc
        if seqid != self._seqid:
            raise TApplicationException(
                TApplicationException.BAD_SEQUENCE_ID,
                f"expected seqid {self._seqid}, got {seqid}")
        if rname != name and rname.split(TMultiplexedProcessor.SEPARATOR)[-1] != name:
            raise TApplicationException(
                TApplicationException.WRONG_METHOD_NAME,
                f"expected reply to {name!r}, got {rname!r}")
        result.read(self._iprot)
        self._iprot.read_message_end()
        return result
