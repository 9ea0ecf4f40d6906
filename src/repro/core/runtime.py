"""HatRPC runtime: assembling generated code, engine, and servers.

Client side::

    client = yield from hatrpc_connect(node, server_node, gen, "KVService")
    value = yield from client.Get(key)

Server side::

    server = HatRpcServer(node, gen, "KVService", handler).start()

Both ends derive the same channel plan from the generated ``SERVICE_HINTS``
map, so no protocol negotiation happens on the wire.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro import frame
from repro.core.engine import HatRpcEngine, ServicePlan, build_service_plan
from repro.core.trdma import HintedProtocol, TRdma, _PAUSE, _AsyncTRdma
from repro.obs import trace as obstrace
from repro.overload import AdmissionConfig, AdmissionGate, gated
from repro.protocols import SRQ_SERVERS, ProtoConfig, get_protocol
from repro.thrift.errors import TTransportException
from repro.thrift.protocol.binary import TBinaryProtocol
from repro.thrift.transport import (
    TFramedTransport,
    TMemoryBuffer,
    TServerSocket,
    TSocket,
)
from repro.thrift.server import TThreadedServer

__all__ = ["AsyncCaller", "HatRpcClient", "HatRpcServer", "RdmaChannel",
           "StubCallHandle", "TcpChannel", "gather", "hatrpc_connect",
           "service_plan_of"]

DEFAULT_BASE_SERVICE_ID = 5000


def service_plan_of(gen_module, service_name: str,
                    concurrency: Optional[int] = None,
                    pipeline: bool = False,
                    tunable: bool = False) -> ServicePlan:
    """Build the channel plan from a generated module's hint map.

    ``pipeline=True`` provisions RDMA channels for overlapped in-flight
    requests (window sized from the concurrency hint); both peers must
    build their plan with the same flag.  ``tunable=True`` (or a
    ``tunable`` hint on any function) additionally provisions the
    alternate channels the online :class:`~repro.core.tuner.HintTuner`
    may retarget onto; like ``pipeline``, both peers must agree.
    """
    hint_map = gen_module.SERVICE_HINTS.get(service_name)
    if hint_map is None:
        raise KeyError(f"service {service_name!r} not found in generated "
                       f"module (has: {sorted(gen_module.SERVICE_HINTS)})")
    functions = gen_module.SERVICE_FUNCTIONS[service_name]
    return build_service_plan(service_name, hint_map, functions,
                              concurrency_override=concurrency,
                              pipeline=pipeline, tunable=tunable)


# ---------------------------------------------------------------------------
# Channels: a uniform message call interface over RDMA protocols and TCP.
# ---------------------------------------------------------------------------

class RdmaChannel:
    """One RDMA protocol connection (client side)."""

    def __init__(self, node, channel_plan):
        self.node = node
        self.plan = channel_plan
        client_cls, _ = get_protocol(channel_plan.protocol)
        # rfp_first_read: the hint-informed sizing of RFP's speculative
        # fetch -- a pinned comparator keeps the stock 4 KiB slot, while a
        # hint-derived plan sizes it to the expected response.
        cfg = ProtoConfig(poll_mode=channel_plan.client_poll,
                          max_msg=channel_plan.max_msg,
                          numa_local=channel_plan.client_numa,
                          window=channel_plan.window)
        if channel_plan.hinted:
            # Hint-informed speculative-READ sizing, capped: probing with a
            # huge READ wastes wire on every not-ready retry, so beyond the
            # cap RFP probes small and fetches the exact remainder once.
            cfg = cfg.with_(rfp_first_read=min(channel_plan.resp_size + 1024,
                                               4096))
        self._client = client_cls(node.nic, cfg)
        # Pipelining needs both a capable protocol AND a plan that
        # provisioned multiple wire slots; window-1 channels keep the
        # classic (single-outstanding) call path.
        self.supports_pipelining = (self._client.supports_pipelining
                                    and channel_plan.window > 1)

    def open(self, remote_node, service_id: int):
        try:
            yield from self._client.connect(remote_node, service_id)
        except BaseException:
            # Never leave a half-open connection behind a failed handshake.
            self._client.abort()
            raise

    def call(self, message: bytes, resp_hint: int, oneway: bool = False,
             trace=None):
        # Oneway still receives the engine-level empty ack the server sends
        # for every request; the fixed cost is one tiny response message.
        return (yield from self._client.call(message, resp_hint=resp_hint,
                                             trace=trace))

    def post(self, message: bytes):
        """Coroutine: pipelined send half (pair with :meth:`recv`)."""
        yield from self._client.post(message)

    def recv(self):
        """Coroutine: next response in arrival order (pipelined)."""
        return (yield from self._client.recv())

    def close(self) -> None:
        # Error the QP pair: the peer-side flush wakes the server's serve
        # loop so it can release the connection.
        self._client.abort()


class TcpChannel:
    """One framed-TCP connection (hybrid-transport channels)."""

    supports_pipelining = False

    def __init__(self, node, remote_node, port: int):
        self.node = node
        self.remote_node = remote_node
        self.port = port
        self._trans: Optional[TFramedTransport] = None

    def open(self):
        self._trans = TFramedTransport(
            TSocket(self.node, self.remote_node, self.port))
        yield from self._trans.open()

    def call(self, message: bytes, resp_hint: int, oneway: bool = False,
             trace=None):
        t0 = self.node.sim.now
        self._trans.write(message)
        yield from self._trans.flush()
        if trace is not None:
            trace.stage("post", t0, self.node.sim.now, nbytes=len(message))
        if oneway:
            return b""
        t1 = self.node.sim.now
        yield from self._trans.ready()
        resp = self._trans.read(1 << 30)
        if trace is not None:
            trace.stage("complete", t1, self.node.sim.now,
                        nbytes=len(resp))
        return resp

    def close(self) -> None:
        if self._trans is not None:
            self._trans.close()


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class HatRpcServer:
    """Serves one IDL service over its full channel plan.

    ``admission`` (an :class:`~repro.overload.AdmissionConfig`, or a
    pre-built :class:`~repro.overload.AdmissionGate` to share one gate
    across services) installs priority-tiered admission control: every
    request -- on every channel, RDMA and TCP alike -- passes ONE gate
    before dispatch, keyed by the function's resolved ``priority`` hint,
    and a refusal answers with a ``retry_after`` frame header.  ``srq=True``
    swaps each eligible RDMA channel's server onto the shared-receive-queue
    path (:class:`~repro.protocols.srq.SrqEagerServer`): one recv-WQE pool
    and one dispatcher instead of a poll loop per connection, which is what
    keeps a busy-polled server upright when connections outnumber cores.
    ``srq_slots`` sizes that pool (default: the channel's ring depth).
    """

    def __init__(self, node, gen_module, service_name: str, handler,
                 base_service_id: int = DEFAULT_BASE_SERVICE_ID,
                 concurrency: Optional[int] = None,
                 plan: Optional[ServicePlan] = None,
                 pipeline: bool = False,
                 admission=None,
                 srq: bool = False,
                 srq_slots: Optional[int] = None,
                 tunable: bool = False):
        self.node = node
        self.gen = gen_module
        self.service_name = service_name
        self.handler = handler
        self.base_service_id = base_service_id
        self.plan = plan or service_plan_of(gen_module, service_name,
                                            concurrency, pipeline=pipeline,
                                            tunable=tunable)
        #: highest tuner plan epoch seen on the wire (-1: none yet).  The
        #: server needs no tuner of its own -- dispatch is channel-agnostic
        #: and a tunable plan already serves every alternate -- but the
        #: echoed epoch is the client's split-brain guard, and this counter
        #: is the observable proof the peers converged.
        self.tuner_epoch_seen = -1
        self.processor = getattr(gen_module, f"{service_name}Processor")(
            handler)
        #: one protocol server (or TCP Thrift server) per plan channel
        self.servers: List[Any] = []
        self.srq = srq
        self.srq_slots = srq_slots
        if admission is None:
            self.gate = None
        elif isinstance(admission, AdmissionGate):
            self.gate = admission
        elif isinstance(admission, AdmissionConfig):
            self.gate = AdmissionGate(node.sim, admission)
        else:
            raise TypeError("admission must be an AdmissionConfig or "
                            f"AdmissionGate, not {type(admission).__name__}")
        #: fn -> resolved server-side priority hint, for the pre-dispatch
        #: peek (the shed-order key)
        self._priorities = {fn: route.server_hints.priority
                            for fn, route in self.plan.routes.items()}

    def start(self) -> "HatRpcServer":
        for ch in self.plan.channels:
            sid = self.base_service_id + ch.index
            if ch.transport == "tcp":
                server = TThreadedServer(
                    self.processor, TServerSocket(self.node, sid),
                    admission=self.gate, priorities=self._priorities)
                server.serve()
            else:
                server_cls = SRQ_SERVERS.get(ch.protocol) if self.srq \
                    else None
                if server_cls is None:
                    _, server_cls = get_protocol(ch.protocol)
                    extra = {}
                else:
                    extra = {"srq_slots": self.srq_slots} \
                        if self.srq_slots is not None else {}
                cfg = ProtoConfig(poll_mode=ch.server_poll,
                                  max_msg=ch.max_msg,
                                  numa_local=ch.server_numa,
                                  window=ch.window)
                server = server_cls(self.node.nic, sid,
                                    self._bytes_handler, cfg, **extra)
                server.start()
            self.servers.append(server)
        return self

    def stop(self) -> None:
        for server in self.servers:
            server.stop()

    @property
    def requests(self) -> int:
        return sum(s.requests for s in self.servers)

    def _bytes_handler(self, request: bytes):
        """Coroutine, the RDMA servers' handler: request bytes -> Thrift
        processor -> reply bytes, and the one read of the request's frame
        header.  Its ``seq`` (pipelined calls) and ``epoch`` (tuner-tagged
        ones) are echoed onto the reply -- even an empty oneway one, whose
        header alone lets the client release the window slot -- so the
        client can pair out-of-order completions and discard samples issued
        under a stale plan.  No header in, none out: plain Thrift both ways.
        """
        header, message = frame.split(request)
        epoch = header.epoch
        if epoch is not None and epoch > self.tuner_epoch_seen:
            self.tuner_epoch_seen = epoch
        sim = self.node.sim
        ctx = obstrace.active(sim)      # the serve loop's ServerCall, or None
        if self.gate is None:
            out = yield from self._process(message, ctx)
        else:
            retry_after, out = yield from gated(
                self.gate, self._priorities, message, ctx, sim,
                lambda: self._process(message, ctx))
            if retry_after is not None:
                # No epoch echo on a rejection: a shed request says
                # nothing about the plan choice.
                return frame.pack(seq=header.seq, retry_after=retry_after)
        return frame.pack(seq=header.seq, epoch=epoch) + out

    def _process(self, message: bytes, ctx):
        # One buffer and one protocol both ways, as a Thrift server's
        # connection has: the request is decoded off it before the handler
        # runs, the reply gathered onto it after.
        trans = TMemoryBuffer(message)
        # The processor has no simulator handle of its own.  Always
        # assigned, so a previous request's context never leaks onto this.
        trans.trace_ctx = ctx
        replied = yield from self.processor.process(TBinaryProtocol(trans))
        return trans.getvalue() if replied else b""


class HatRpcClient:
    """Holds the engine + transport behind a generated client object."""

    def __init__(self, node, gen_module, service_name: str,
                 base_service_id: int = DEFAULT_BASE_SERVICE_ID,
                 concurrency: Optional[int] = None,
                 plan: Optional[ServicePlan] = None,
                 deadline: Optional[float] = None,
                 retry_policy=None, idempotent=(), rng=None,
                 pipeline: bool = False, trace_attrs=None,
                 retry_budget=None, tunable: bool = False, tuner=None):
        self.node = node
        self.gen = gen_module
        self.service_name = service_name
        self.plan = plan or service_plan_of(gen_module, service_name,
                                            concurrency, pipeline=pipeline,
                                            tunable=tunable or
                                            tuner is not None)
        self.engine = HatRpcEngine(node, self.plan, base_service_id,
                                   deadline=deadline,
                                   retry_policy=retry_policy,
                                   idempotent=idempotent, rng=rng,
                                   trace_attrs=trace_attrs,
                                   retry_budget=retry_budget)
        if tuner is not None:
            self.engine.attach_tuner(tuner)
        self.trans = TRdma(self.engine)
        self.protocol = HintedProtocol(self.trans)
        self._stub_cls = getattr(gen_module, f"{service_name}Client")
        self.stub = self._stub_cls(self.protocol)
        self._async_caller: Optional["AsyncCaller"] = None

    def connect(self, remote_node):
        """Coroutine: open all channels; returns the generated client stub."""
        yield from self.engine.connect(remote_node)
        return self.stub

    def async_caller(self) -> "AsyncCaller":
        """The (cached) asynchronous driver for this client's stubs."""
        if self._async_caller is None:
            self._async_caller = AsyncCaller(self)
        return self._async_caller

    def close(self) -> None:
        self.engine.close()


class StubCallHandle:
    """Completion handle for one asynchronous *stub* call.

    Wraps the engine's :class:`~repro.core.pipeline.CallHandle` and the
    paused generated-stub generator: ``yield from handle.wait()`` blocks
    for the raw response, then resumes the stub to deserialize it --
    returning the decoded result and raising declared IDL exceptions
    exactly as the blocking path would.
    """

    def __init__(self, method: str, engine_handle, gen, trdma):
        self.method = method
        self.handle = engine_handle        # engine-level CallHandle
        self._gen = gen                    # paused stub generator (None=oneway)
        self._trdma = trdma
        self._decoded = False
        self._result = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self.handle.done

    def wait(self, timeout: Optional[float] = None):
        """Coroutine: the decoded result of the call (or its exception)."""
        if self._decoded:
            if self._error is not None:
                raise self._error
            return self._result
        resp = yield from self.handle.wait(timeout)
        self._decoded = True
        if self._gen is None:              # oneway: nothing to decode
            self._result = None
            return None
        try:
            self._trdma.deliver(resp)
            self._gen.send(None)
        except StopIteration as stop:
            self._result = stop.value
            return stop.value
        except BaseException as exc:
            # Declared IDL exceptions / TApplicationException from the
            # stub's receive half: cache so repeat waits re-raise.
            self._error = exc
            raise
        raise RuntimeError(
            f"stub generator for {self.method} paused unexpectedly")


def gather(handles, timeout: Optional[float] = None):
    """Coroutine: wait on every handle in order and return the decoded
    results in that order.  A failure does not cut the wait short: every
    handle is waited on first, then the first failure is raised."""
    results = []
    first_exc: Optional[Exception] = None
    for h in handles:
        try:
            results.append((yield from h.wait(timeout)))
        except Exception as exc:
            if first_exc is None:
                first_exc = exc
            results.append(None)
    if first_exc is not None:
        raise first_exc
    return results


class AsyncCaller:
    """Drives generated stub methods through the engine's pipelined path.

    Generated stub methods are two-phase coroutines (send half, receive
    half); the caller runs the send half against a capture transport
    (:class:`repro.core.trdma._AsyncTRdma`), posts the captured message via
    ``engine.call_async``, and parks the paused generator in a
    :class:`StubCallHandle` to finish deserialization when the response
    lands.  One shared seqid counter spans every call, blocking or async, so
    the engine's duplicate-send gate keeps working.
    """

    def __init__(self, client: HatRpcClient):
        self.client = client
        self.engine = client.engine

    def call_async(self, method: str, *args):
        """Coroutine: issue ``stub.<method>(*args)`` without waiting;
        returns a :class:`StubCallHandle`.  Post several, then wait on
        them all with :func:`gather`."""
        trdma = _AsyncTRdma(self.engine)
        stub = self.client._stub_cls(HintedProtocol(trdma))
        # One numbering across every stub, sync AND async: the throwaway
        # capture stub continues the connection stub's counter and writes
        # it back, so no later call (on either path) can collide with an
        # earlier seqid and trip the engine's duplicate-send gate.
        stub._seqid = self.client.stub._seqid
        gen = getattr(stub, method)(*args)
        try:
            paused = next(gen)
        except StopIteration:
            gen = None                     # oneway: send half ran to the end
        else:
            if paused is not _PAUSE:
                raise RuntimeError(
                    f"stub method {method} yielded mid-serialization; "
                    "async stubs must not block before flush")
        self.client.stub._seqid = stub._seqid
        fn, message, oneway, seqid = trdma.captured
        handle = yield from self.engine.call_async(fn, message,
                                                   oneway=oneway,
                                                   seqid=seqid)
        return StubCallHandle(method, handle, gen, trdma)


def hatrpc_connect(node, remote_node, gen_module, service_name: str,
                   base_service_id: int = DEFAULT_BASE_SERVICE_ID,
                   concurrency: Optional[int] = None,
                   plan: Optional[ServicePlan] = None,
                   deadline: Optional[float] = None,
                   retry_policy=None, idempotent=(), rng=None,
                   pipeline: bool = False, trace_attrs=None,
                   retry_budget=None, tunable: bool = False, tuner=None):
    """Coroutine: one-call client setup; returns the generated stub.

    The stub's methods are coroutines: ``yield from stub.Method(...)``.
    Keep a reference to ``stub._hatrpc`` (the HatRpcClient) for close().
    ``deadline`` / ``retry_policy`` / ``idempotent`` / ``rng`` configure the
    engine's failure handling (see :class:`repro.core.engine.HatRpcEngine`).
    ``pipeline=True`` provisions RDMA channels for overlapped in-flight
    calls (drive them via ``stub._hatrpc.async_caller()``); the server must
    be started with the same flag or the same plan.  ``trace_attrs`` are
    stamped onto every call's trace (a shard router passes its shard id so
    hint_select stages attribute per shard).  ``tunable=True`` provisions
    the online tuner's alternate channels (server must match); ``tuner``
    attaches a (shareable) :class:`~repro.core.tuner.HintTuner` and
    implies ``tunable``.
    """
    client = HatRpcClient(node, gen_module, service_name, base_service_id,
                          concurrency, plan,
                          deadline=deadline, retry_policy=retry_policy,
                          idempotent=idempotent, rng=rng, pipeline=pipeline,
                          trace_attrs=trace_attrs, retry_budget=retry_budget,
                          tunable=tunable, tuner=tuner)
    stub = yield from client.connect(remote_node)
    stub._hatrpc = client
    return stub
