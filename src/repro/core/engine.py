"""The hint-aware communication engine (Section 4.3).

From a service's hierarchical hint map (the ``SERVICE_HINTS`` emitted by the
IDL compiler) the engine derives a **channel plan**: every RPC function is
resolved on both sides, run through the Figure 6 selector, and assigned to a
channel -- one per distinct (transport, wire protocol, polling pair).
Functions with identical choices share a connection; functions with
different optimization goals are isolated on their own connections (the
paper's *optimization isolation*).

Wire-protocol agreement: both peers derive the plan from the same generated
hint map, so the mapping is deterministic.  The wire scheme (protocol +
buffer geometry) follows the server-side resolution -- the server owns the
serving resources -- with the payload hint taken as the max of both sides
(request and response travel the same connection); each side keeps its own
polling discipline and NUMA binding from its own lateral hints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import frame, obs
from repro.obs import trace as obstrace
from repro.core.hints import ResolvedHints, resolve_hints
from repro.core.pipeline import (BoundedSeqidSet, CallHandle, ChannelPipeline,
                                 PipelineDead)
from repro.core.resilience import (CircuitBreaker, FaultCounters, RetryBudget,
                                   RetryPolicy)
from repro.core.selector import (SMALL_MESSAGE_THRESHOLD,
                                 TUNER_CONCURRENCY_GRID, TUNER_PAYLOAD_GRID,
                                 ProtocolChoice, select_protocol)
from repro.protocols import ProtocolError
from repro.sim.units import KiB
from repro.thrift.errors import (TRejectedException, TTransportException,
                                 transport_exception_from_wc)
from repro.verbs.cq import PollMode
from repro.verbs.errors import QPStateError, WCError

__all__ = ["ChannelPlan", "FunctionRoute", "HatRpcEngine", "ServicePlan",
           "build_service_plan", "pinned_plan", "plan_with_window"]

#: bounds on the in-flight window derived from the concurrency hint: at
#: least 4 (a window of 2-3 barely overlaps anything) and at most 64 (the
#: eager receive-ring depth -- a wider window could overrun the ring).
_MIN_WINDOW = 4
_MAX_WINDOW = 64

#: headroom added to the payload hint when sizing connection buffers
_MAX_MSG_SLACK = 8 * KiB
#: buffer floor for channels whose functions carry NO payload_size hint:
#: without the hint the engine cannot right-size pinned buffers and must
#: provision conservatively -- precisely the memory cost hints remove.
_UNHINTED_MAX_MSG = 128 * KiB

#: newest ``fault_trace`` entries an engine keeps (the evicted ones are
#: counted in ``fault_trace_dropped``): a channel that fails for a whole
#: run must not grow the log without limit.  The longest trace a test or
#: bench compares in full has 8 entries (a faulted call's retries,
#: failover and breaker opens in tests/obs/test_timeline.py).
FAULT_TRACE_CAP = 256

#: how often :meth:`HatRpcEngine.drain_close` re-checks for in-flight calls
DRAIN_POLL = 1e-6


@dataclass(frozen=True)
class ChannelPlan:
    """One connection shared by all functions with identical choices."""

    index: int                  # service-id offset from the base
    transport: str              # 'rdma' | 'tcp'
    protocol: str               # protocols registry name ('' for tcp)
    server_poll: PollMode
    client_poll: PollMode
    server_numa: bool
    client_numa: bool
    max_msg: int
    functions: tuple            # function names routed here
    #: in-flight window this channel is provisioned for (slot count on the
    #: wire, admission bound in the engine); 1 = classic blocking geometry.
    window: int = 1
    #: True for a channel provisioned ONLY as a tuner target: no function
    #: routes here at plan time, but the server serves it and the online
    #: tuner may re-route functions onto it at runtime.
    alternate: bool = False


@dataclass(frozen=True)
class FunctionRoute:
    channel: int                # ChannelPlan.index
    server_hints: ResolvedHints
    client_hints: ResolvedHints
    choice: ProtocolChoice


@dataclass(frozen=True)
class ServicePlan:
    service: str
    channels: tuple             # of ChannelPlan
    routes: Mapping[str, FunctionRoute]

    def channel_for(self, fn: str) -> ChannelPlan:
        return self.channels[self.routes[fn].channel]


def build_service_plan(service: str,
                       hint_map: Mapping[str, Any],
                       function_names: Sequence[str],
                       concurrency_override: Optional[int] = None,
                       pipeline: bool = False,
                       tunable: bool = False
                       ) -> ServicePlan:
    """Derive the channel plan for one service.

    ``hint_map`` is the generated ``SERVICE_HINTS[service]`` entry
    ({'service': {...}, 'functions': {fn: {...}}}).  ``concurrency_override``
    lets deployments inject the real expected client count when the IDL
    author left it unspecified.  ``pipeline=True`` provisions RDMA channels
    for overlapped requests: the in-flight window is sized from the
    concurrency hint (clamped to [4, 64]) and both peers must pass the same
    flag -- window size changes the wire-slot geometry.

    ``tunable=True`` (or a ``tunable = true`` hint anywhere in the service)
    appends **alternate channels**: one per selector choice reachable over
    the tuning grid that no declared channel already covers, provisioned
    with the conservative unhinted buffer floor.  They carry no functions
    at plan time; an attached :class:`~repro.core.tuner.HintTuner`
    re-routes functions onto them at runtime.  Both peers derive the same
    alternates from the same hint map, so the server is already serving
    every channel the tuner could ever pick -- the switch is pure
    client-side routing, no renegotiation.
    """
    service_map = hint_map.get("service", {})
    fn_maps = hint_map.get("functions", {})
    keyed: Dict[tuple, dict] = {}
    routes: Dict[str, dict] = {}
    for fn in function_names:
        fn_map = fn_maps.get(fn)
        server = resolve_hints(service_map, fn_map, "server")
        client = resolve_hints(service_map, fn_map, "client")
        payload_hinted = any(
            "payload_size" in layer
            for layer in (service_map.get("shared", {}),
                          service_map.get("server", {}),
                          service_map.get("client", {}),
                          *((fn_map or {}).values())))
        if concurrency_override is not None:
            server = replace(server, concurrency=concurrency_override)
            client = replace(client, concurrency=concurrency_override)
        sel_payload = max(server.payload_size, client.payload_size)
        wire = select_protocol(replace(server, payload_size=sel_payload))
        client_choice = select_protocol(replace(client,
                                                payload_size=sel_payload))
        # Channels segregate by payload class too: bulk-data functions
        # never inflate the pinned buffer geometry of small-message ones.
        small = sel_payload <= SMALL_MESSAGE_THRESHOLD
        key = (wire.transport, wire.protocol, wire.poll_mode,
               client_choice.poll_mode, server.numa_binding,
               client.numa_binding, small)
        entry = keyed.setdefault(key, {"functions": [], "max_msg": 0,
                                       "conc": 1})
        entry["functions"].append(fn)
        floor = sel_payload if payload_hinted else max(sel_payload,
                                                       _UNHINTED_MAX_MSG)
        entry["max_msg"] = max(entry["max_msg"], floor + _MAX_MSG_SLACK)
        entry["conc"] = max(entry["conc"], server.concurrency,
                            client.concurrency)
        routes[fn] = {"key": key, "server": server, "client": client,
                      "choice": wire}

    reg = obs.current()
    if reg is not None:
        # Selector decision counts: one per routed function (plan build is
        # cold path, so the registry lookup here is fine).
        for r in routes.values():
            choice = r["choice"]
            reg.counter(f"selector.{choice.protocol or 'tcp'}."
                        f"{choice.poll_mode.value}").inc()

    channels = []
    key_to_index = {}
    for i, (key, entry) in enumerate(sorted(keyed.items(),
                                            key=lambda kv: repr(kv[0]))):
        transport, protocol, s_poll, c_poll, s_numa, c_numa, _small = key
        window = 1
        if pipeline and transport == "rdma":
            window = min(max(entry["conc"], _MIN_WINDOW), _MAX_WINDOW)
        channels.append(ChannelPlan(
            index=i, transport=transport, protocol=protocol,
            server_poll=s_poll, client_poll=c_poll,
            server_numa=s_numa, client_numa=c_numa,
            max_msg=entry["max_msg"],
            functions=tuple(entry["functions"]),
            window=window))
        key_to_index[key] = i

    if not tunable:
        tunable = any(r["server"].tunable or r["client"].tunable
                      for r in routes.values())
    if tunable:
        # Alternates get the unhinted floor: the tuner switches *because*
        # the declared payload hint went stale, so the target must fit
        # whatever actually shows up (the tuner still checks max_msg
        # against the observed payloads before routing there).
        alt_max_msg = _UNHINTED_MAX_MSG + _MAX_MSG_SLACK
        covered = {key[:6] for key, entry in keyed.items()
                   if entry["max_msg"] >= alt_max_msg}
        alts: Dict[tuple, int] = {}
        for r in routes.values():
            server, client = r["server"], r["client"]
            for conc in TUNER_CONCURRENCY_GRID:
                for payload in TUNER_PAYLOAD_GRID:
                    alt_wire = select_protocol(
                        replace(server, payload_size=payload,
                                concurrency=conc))
                    alt_client = select_protocol(
                        replace(client, payload_size=payload,
                                concurrency=conc))
                    k6 = (alt_wire.transport, alt_wire.protocol,
                          alt_wire.poll_mode, alt_client.poll_mode,
                          server.numa_binding, client.numa_binding)
                    if k6 in covered:
                        continue
                    alts[k6] = max(alts.get(k6, 1), server.concurrency,
                                   client.concurrency)
        for k6 in sorted(alts, key=repr):
            transport, protocol, s_poll, c_poll, s_numa, c_numa = k6
            window = 1
            if pipeline and transport == "rdma":
                window = min(max(alts[k6], _MIN_WINDOW), _MAX_WINDOW)
            channels.append(ChannelPlan(
                index=len(channels), transport=transport, protocol=protocol,
                server_poll=s_poll, client_poll=c_poll,
                server_numa=s_numa, client_numa=c_numa,
                max_msg=alt_max_msg, functions=(), alternate=True,
                window=window))

    final_routes = {
        fn: FunctionRoute(channel=key_to_index[r["key"]],
                          server_hints=r["server"],
                          client_hints=r["client"],
                          choice=r["choice"])
        for fn, r in routes.items()
    }
    return ServicePlan(service=service, channels=tuple(channels),
                       routes=final_routes)


def pinned_plan(service: str, function_names: Sequence[str], protocol: str,
                poll_mode: PollMode, max_msg: int,
                numa_local: bool = True) -> ServicePlan:
    """A one-channel plan with a fixed protocol + polling, ignoring hints.

    This is how the paper's per-protocol baselines (e.g. "Thrift over
    Hybrid-EagerRNDV") are expressed: the same generated code and runtime,
    with the hint machinery bypassed.  The channel carries one call at a
    time; :func:`plan_with_window` widens it for pipelined calls.
    """
    transport = "tcp" if protocol == "tcp" else "rdma"
    channel = ChannelPlan(index=0, transport=transport,
                          protocol="" if transport == "tcp" else protocol,
                          server_poll=poll_mode, client_poll=poll_mode,
                          server_numa=numa_local, client_numa=numa_local,
                          max_msg=max_msg, functions=tuple(function_names))
    choice = ProtocolChoice(transport, channel.protocol, poll_mode,
                            "pinned baseline")
    reg = obs.current()
    if reg is not None:
        reg.counter("selector.pinned").inc(len(function_names))
    routes = {fn: FunctionRoute(channel=0,
                                server_hints=ResolvedHints.from_mapping({}),
                                client_hints=ResolvedHints.from_mapping({}),
                                choice=choice)
              for fn in function_names}
    return ServicePlan(service=service, channels=(channel,), routes=routes)


def plan_with_window(plan: ServicePlan, window: int) -> ServicePlan:
    """``plan`` with every RDMA channel re-provisioned for ``window``
    in-flight calls.  Apply it on *both* peers -- the window sets the
    wire-slot geometry, which the direct-write blob exchange does not
    carry."""
    channels = tuple(
        replace(ch, window=window) if ch.transport == "rdma" else ch
        for ch in plan.channels)
    return replace(plan, channels=channels)


#: exceptions that mean "this channel's transport failed" (as opposed to
#: application errors, which ride inside successful responses)
_CHANNEL_ERRORS = (WCError, QPStateError, ProtocolError, ConnectionError,
                   TTransportException)

#: trace-event kinds that are good news: they never mark the trace for
#: always-commit (everything else in the fault trace does)
_BENIGN_TRACE_KINDS = ("failback", "tuner_switch", "tuner_revert",
                       "tuner_retire")


class _PendingCall:
    """The record of one call, blocking or pipelined, from admission to
    settlement.

    A blocking call has no ``handle`` (its result returns up the caller's
    stack); a pipelined one settles through it.  The record owns what must
    be released exactly once on every exit: the in-flight count and the
    live seqid pin.  :class:`~repro.core.pipeline.ChannelPipeline` drives
    ``wire`` / ``complete`` / ``fail``; the engine drives the rest.
    """

    __slots__ = ("engine", "fn", "route", "message", "oneway", "seqid",
                 "handle", "act", "attempt", "channel", "t_start", "epoch",
                 "error", "_held")

    def __init__(self, engine, fn, route, message, oneway, seqid, handle,
                 act):
        self.engine = engine
        self.fn = fn
        self.route = route
        self.message = message
        self.oneway = oneway
        self.seqid = seqid
        self.handle = handle
        self.act = act
        self.attempt = 0
        self.channel = -1
        self.t_start = engine.node.sim.now
        self.epoch = None            # tuner plan epoch riding on the wire
        self.error = None            # what the last failed attempt surfaces
        self._held = None            # channel whose in-flight count we hold

    def wire(self, pip_seq):
        """The wire bytes: the frame header, if the call has anything to
        put in one, and the message.  The trace context carries the
        current attempt's span id, so the server span parents to the
        attempt that reached it; unsampled, unfaulted calls have none."""
        trace = self.act.context() if self.act is not None else None
        return frame.pack(trace, pip_seq, self.epoch) + self.message

    def mark_inflight(self, idx: int) -> None:
        """Count the call in flight on channel ``idx``: the count gates
        drain-and-close, the gauge (when metrics are on) mirrors it."""
        eng = self.engine
        eng._inflight[idx] = eng._inflight.get(idx, 0) + 1
        m = eng._chan_metrics.get(idx)
        if m is not None:
            m[3].inc()
        self._held = idx

    def drop_gauge(self) -> None:
        """Give the in-flight count back exactly once, whatever the path."""
        idx = self._held
        if idx is None:
            return
        self._held = None
        eng = self.engine
        eng._inflight[idx] -= 1
        m = eng._chan_metrics.get(idx)
        if m is not None:
            m[3].dec()

    def release(self) -> None:
        """Every exit: the count drops and the seqid comes off the live
        pin, so the ledger can evict it once it is merely historical."""
        self.drop_gauge()
        if self.seqid is not None:
            self.engine._sent_seqids.unpin((self.fn, self.seqid))

    def complete(self, header, resp) -> None:
        """A response arrived for this (pipelined) call."""
        eng = self.engine
        self.drop_gauge()
        try:
            delay, resp = eng._settle(self, header, resp)
        except TRejectedException as exc:
            self.fail(exc)
            return
        if delay is not None:
            eng._resend(self, delay)
            return
        self.release()
        if self.act is not None:
            self.act.finish(eng.node.sim.now, status="ok",
                            resp_bytes=len(resp or b""))
        self.handle._resolve(b"" if self.oneway else resp)

    def fail(self, exc: BaseException) -> None:
        """Terminal failure of a pipelined call: lands on the handle."""
        eng = self.engine
        self.release()
        if self.act is not None:
            self.act.finish(eng.node.sim.now,
                            status=type(exc).__name__)
        self.handle._fail(exc)


class HatRpcEngine:
    """Client-side engine: one protocol/TCP connection per channel plan.

    Static hints configure connections at establishment (buffer geometry,
    polling); the per-call dynamic hint path is just the function -> route
    lookup, mirroring the paper's "only pass the pointer and cache the RPC
    function type" minimization.

    Every call is one :class:`_PendingCall` passing the same decision
    sites, each written once: ``_admit``, ``_begin`` / ``_commit``,
    ``_channel_failed``, ``_retry_delay``, ``_settle``, ``_backoff``.  Two
    thin wire drivers loop around them: ``_call_blocking`` runs
    ``chan.call`` inline in the caller's process; ``_submit_entry`` posts
    under a :class:`~repro.core.pipeline.ChannelPipeline` window and is
    finished from its receiver and sweep.  DESIGN.md section 7 tabulates
    the policy.

    Failure handling (all deterministic under a seeded ``rng``):

    * **deadline** -- an optional time budget, set per engine, that each
      call (retries included) must finish within; expiry raises
      ``TTransportException(TIMED_OUT)`` and discards the in-flight channel
      so the next call reconnects cleanly;
    * **retry** -- transport errors are retried under ``retry_policy``
      (capped exponential backoff + jitter), but only while the request has
      provably not reached the wire, or when the function is listed in
      ``idempotent`` -- non-idempotent writes are never blind-retried;
    * **breaker + failover** -- each channel has a
      :class:`~repro.core.resilience.CircuitBreaker`; while a channel's
      breaker is open, calls degrade onto the best surviving channel of the
      same plan (two-sided eager first, then other RDMA, then TCP) and fail
      back automatically once the primary's breaker re-admits traffic;
    * **rejection + budget** -- a server admission rejection (the typed
      ``0xC5`` frame) is *not* a channel failure: the breaker is not
      charged and -- because the gate runs before dispatch -- the re-send
      is safe even for non-idempotent functions, after honoring the
      server's advised ``retry_after``.  An optional shared
      :class:`~repro.core.resilience.RetryBudget` bounds the aggregate
      retry rate (transport *and* rejection retries) so a storm of
      rejections cannot amplify itself; an exhausted budget surfaces the
      typed :class:`~repro.thrift.errors.TRejectedException` immediately.

    Every decision lands in :attr:`faults` (counters) and
    :attr:`fault_trace` (an ordered, replayable list of
    ``(sim_time, kind, function, channel, detail)`` tuples, the newest
    :data:`FAULT_TRACE_CAP` of them).
    """

    def __init__(self, node, plan: ServicePlan,
                 base_service_id: int = 5000,
                 deadline: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 idempotent: Sequence[str] = (),
                 rng: Optional[random.Random] = None,
                 trace_attrs: Optional[Mapping[str, Any]] = None,
                 retry_budget: Optional[RetryBudget] = None):
        self.node = node
        self.plan = plan
        self.base_service_id = base_service_id
        self.deadline = deadline
        self.retry_policy = retry_policy or RetryPolicy()
        #: optional shared token bucket bounding this engine's retry rate
        #: (None = unlimited; pass ONE budget to many engines to bound
        #: their sum)
        self.retry_budget = retry_budget
        self.rng = rng or random.Random(0)
        self.idempotent_fns = set(idempotent)
        #: extra attributes stamped onto every call's trace (a shard router
        #: sets {"shard": N} so hint_select stages attribute per shard)
        self.trace_attrs = dict(trace_attrs or {})
        self.faults = FaultCounters()
        self.fault_trace: List[Tuple[float, str, str, int, str]] = []
        self.fault_trace_dropped = 0
        self._channels: Dict[int, Any] = {}
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._failover_order: Dict[int, List[int]] = {}
        self._last_channel: Dict[int, int] = {}   # primary idx -> last used
        self._sent_seqids = BoundedSeqidSet()
        self._pipelines: Dict[int, ChannelPipeline] = {}
        self._connected = False
        self._closed = False
        self.calls_routed = 0
        #: optional online HintTuner (attach_tuner); None = declared hints
        #: only, and the whole tuner path costs one attribute check.
        self.tuner = None
        #: calls committed to each channel and not yet settled, blocking
        #: and pipelined alike (drain-and-close gating)
        self._inflight: Dict[int, int] = {}
        self._drain_pending = False
        # -- observability (instruments captured once; None = disabled, so
        # the per-call cost of a disabled run is one attribute check) --
        self._obs = obs.current()
        self._trc = obstrace.current()
        self._chan_metrics: Dict[int, tuple] = {}
        if self._obs is not None:
            # FaultCounters fold in as one probe group; groups with the
            # same name sum across engines at snapshot time.
            self._obs.probe("faults", self.faults.as_dict)
            self._m_calls = self._obs.counter("engine.calls")
            self._m_latency = self._obs.histogram("engine.call_latency")
        else:
            self._m_calls = None
            self._m_latency = None

    # -- lifecycle -----------------------------------------------------------
    def connect(self, remote_node, eager: bool = False):
        """Coroutine: bind to the server; channels open lazily on first use.

        Lazy establishment matters: a channel plan may include connections
        (e.g. a busy-polled latency channel) that a given client never
        exercises -- opening them eagerly would pin server-side polling
        threads for nothing.  Pass ``eager=True`` to pre-open everything
        (connection-setup-sensitive tests).

        A connect-phase failure leaves the engine cleanly closed: any
        channels already opened are torn down and ``is_open()`` is False --
        never a half-open engine holding dangling QPs.
        """
        self._remote_node = remote_node
        self._connected = True
        self._closed = False
        if eager:
            try:
                for ch in self.plan.channels:
                    yield from self._open_channel(ch)
            except BaseException:
                self.close()
                raise
        return self

    def is_open(self) -> bool:
        return self._connected

    def close(self) -> None:
        """Tear down every channel.  Idempotent.

        Resilience state is reset too: stale breakers and routing memory
        from a previous connection would otherwise leak into the next
        ``connect()`` -- e.g. a phantom ``failback`` event on the first
        call of a fresh connection because ``_last_channel`` still recorded
        the old one's failover."""
        if self._closed:
            return
        self._closed = True
        self._connected = False
        err = TTransportException(TTransportException.NOT_OPEN,
                                  "engine closed with calls in flight")
        for pipe in self._pipelines.values():
            for entry in pipe.drain():
                entry.fail(err)
        self._pipelines.clear()
        for chan in self._channels.values():
            chan.close()
        self._channels.clear()
        self._breakers.clear()
        self._last_channel.clear()

    def drain_close(self):
        """Coroutine: wait until every in-flight call settles, then close.

        The polite shutdown for topology changes (a resharded-away shard,
        a migrating router): plain :meth:`close` fails whatever is still
        pipelined with NOT_OPEN, while this lets the tail drain first.
        Calls issued *after* drain_close starts extend the wait -- callers
        should stop routing new work to the engine before invoking it."""
        sim = self.node.sim
        while self._connected and any(self._inflight.values()):
            yield sim.timeout(DRAIN_POLL)
        self.close()

    # -- online tuning -------------------------------------------------------
    def attach_tuner(self, tuner) -> None:
        """Install an online :class:`~repro.core.tuner.HintTuner`.

        The engine starts tagging RDMA requests with the tuner's plan epoch
        and feeding it one (payload, latency) sample per completed call.
        One tuner may be shared by many engines built from the same hint
        map (e.g. every client of a service): samples pool and a switch
        re-routes all of them together.
        """
        self.tuner = tuner
        tuner.bind(self)

    def retarget(self, fn: str, idx: int, choice: ProtocolChoice) -> None:
        """Re-route ``fn`` onto channel ``idx`` (the tuner's switch path).

        The target must already be in the plan -- tunable plans carry
        alternate channels for every reachable choice -- so the server is
        serving it and no wire renegotiation happens; in-flight calls
        complete on their old channel (their epoch tag marks their samples
        stale)."""
        route = self.plan.routes[fn]
        routes = dict(self.plan.routes)
        routes[fn] = replace(route, channel=idx, choice=choice)
        self.plan = replace(self.plan, routes=routes)
        self._drain_pending = True
        self._drain_unrouted()

    def _routed(self) -> set:
        """Channel indices some function currently routes to."""
        return {r.channel for r in self.plan.routes.values()}

    def _drain_unrouted(self) -> None:
        """Close channels no route references, once their last call drains.

        A tuner switch leaves the old channel open but unrouted; holding
        it open would keep its server-side poller running (a busy-polled
        connection burns a server core each) -- the exact cost the switch
        was meant to shed.  Channels with calls still in flight are left
        for the next completion to retire; a later re-route (or failover)
        simply reopens a retired channel lazily."""
        used = self._routed()
        pending = False
        for idx in list(self._channels):
            if idx in used:
                continue
            if self._inflight.get(idx, 0):
                pending = True
                continue
            self._retire_channel(idx)
        self._drain_pending = pending

    def _retire_channel(self, idx: int) -> None:
        """Close an idle, unrouted channel.  Unlike ``_discard_channel``
        this is not a failure: no fault counters, no breaker charge."""
        pipe = self._pipelines.pop(idx, None)
        if pipe is not None:
            pipe.drain()                   # idle: marks dead, returns []
        chan = self._channels.pop(idx, None)
        if chan is not None:
            chan.close()
            self._trace("tuner_retire", "", idx, "unrouted channel closed")

    # -- channels ------------------------------------------------------------
    def _open_channel(self, ch):
        from repro.core.runtime import RdmaChannel, TcpChannel  # cycle-free
        sid = self.base_service_id + ch.index
        if ch.transport == "tcp":
            chan = TcpChannel(self.node, self._remote_node, sid)
            yield from chan.open()
        else:
            chan = RdmaChannel(self.node, ch)
            yield from chan.open(self._remote_node, sid)
        self._channels[ch.index] = chan
        if self._obs is not None and ch.index not in self._chan_metrics:
            proto = ch.protocol or "tcp"
            self._chan_metrics[ch.index] = (
                self._obs.counter(f"engine.{proto}.ops"),
                self._obs.counter(f"engine.{proto}.req_bytes"),
                self._obs.counter(f"engine.{proto}.resp_bytes"),
                self._obs.gauge(f"engine.ch{ch.index}.inflight"),
                self._obs.gauge(f"engine.ch{ch.index}.window_occupancy"),
            )
            self._obs.counter("engine.channels_opened").inc()
        return chan

    def _breaker(self, idx: int) -> CircuitBreaker:
        br = self._breakers.get(idx)
        if br is None:
            def opened(_br, _idx=idx):
                self.faults.breaker_opens += 1
                self._trace("breaker_open", "", _idx)
            br = CircuitBreaker(self.node.sim, on_open=opened)
            self._breakers[idx] = br
        return br

    def _candidates(self, primary: int) -> List[int]:
        """Failover order for a primary channel: primary first, then
        two-sided eager channels, then other RDMA, then TCP."""
        order = self._failover_order.get(primary)
        if order is None:
            def rank(ch: ChannelPlan) -> tuple:
                if ch.index == primary:
                    tier = 0
                elif ch.transport == "rdma" and ch.protocol == "eager_sendrecv":
                    tier = 1
                elif ch.transport == "rdma":
                    tier = 2
                else:
                    tier = 3
                return (tier, ch.index)
            order = [ch.index for ch in sorted(self.plan.channels, key=rank)]
            self._failover_order[primary] = order
        return order

    def _discard_channel(self, idx: int) -> None:
        pipe = self._pipelines.pop(idx, None)
        if pipe is not None and not pipe.dead:
            # Sweeps the pipeline's in-flight entries through _pipeline_dead
            # (the pipe is popped first, so its own discard finds nothing).
            pipe._die(ConnectionError(f"channel {idx} discarded"))
        chan = self._channels.pop(idx, None)
        if chan is not None:
            chan.close()
            self.faults.reconnects += 1

    def _trace(self, kind: str, fn: str, channel: int, detail: str = ""
               ) -> None:
        now = self.node.sim.now
        self.fault_trace.append((now, kind, fn, channel, detail))
        if len(self.fault_trace) > FAULT_TRACE_CAP:
            del self.fault_trace[0]
            self.fault_trace_dropped += 1
        if self._trc is not None:
            # Mirror the fault event into the distributed trace of the call
            # it happened inside (the context rides on the sim process; the
            # breaker's on_open fires synchronously in the caller, so it is
            # reachable here too).  Any fault marks the trace for
            # always-commit -- except failback, which is good news.
            ctx = obstrace.active(self.node.sim)
            if ctx is not None:
                ctx.event(kind, now, fault=kind not in _BENIGN_TRACE_KINDS,
                          fn=fn, channel=channel, detail=detail)

    # -- the two entry points ------------------------------------------------
    def call(self, fn_name: str, message: bytes, oneway: bool = False,
             seqid: Optional[int] = None):
        """Coroutine: route one serialized message; returns response bytes.

        ``seqid`` (from the Thrift message header) gates idempotency: a
        non-idempotent (fn, seqid) pair is sent onto the wire at most once,
        ever -- retrying it requires the application to re-issue the call
        under a fresh seqid.
        """
        entry = self._admit(fn_name, message, oneway, seqid)
        deadline = self.deadline
        if entry.handle is not None:
            yield from self._submit_entry(entry)
            return (yield from entry.handle.wait(deadline))
        run = self._call_blocking(entry) if deadline is None \
            else self._call_within(entry, deadline)
        act = entry.act
        if act is None:
            return (yield from run)
        # The trace rides on the sim process for the whole call, so spans
        # recorded below the engine (and by a spawned deadline attempt,
        # which inherits it) land in this call's tree.
        sim = self.node.sim
        p = sim.active_process
        prev_ctx = p.trace_ctx if p is not None else None
        if p is not None:
            p.trace_ctx = act
        try:
            resp = yield from run
        except BaseException as exc:
            act.finish(sim.now, status=type(exc).__name__)
            raise
        else:
            act.stage("deserialize", sim.now, sim.now,
                      nbytes=len(resp or b""))
            act.finish(sim.now, status="ok", resp_bytes=len(resp or b""))
            return resp
        finally:
            if p is not None:
                p.trace_ctx = prev_ctx

    def call_async(self, fn_name: str, message: bytes, oneway: bool = False,
                   seqid: Optional[int] = None):
        """Coroutine: post one serialized message without waiting for the
        response; returns a :class:`~repro.core.pipeline.CallHandle`.

        Up to the channel's ``window`` calls overlap on one connection;
        posting the window-plus-first call blocks here until a slot frees
        (the backpressure).  Results -- and failures -- surface at
        ``yield from handle.wait()``.  Channels whose protocol cannot
        pipeline (TCP, rendezvous) still work: the window degrades to one
        call at a time, preserving the API.
        """
        entry = self._admit(fn_name, message, oneway, seqid, pipelined=True)
        yield from self._submit_entry(entry)
        return entry.handle

    # -- decision sites (each written once; both drivers pass through) -------
    def _admit(self, fn_name: str, message: bytes, oneway: bool,
               seqid: Optional[int], pipelined: bool = False
               ) -> _PendingCall:
        """Admission: route lookup, wire-driver choice, the seqid gate and
        the trace root.  Returns the call's record; a refused call leaves
        none."""
        if not self._connected:
            raise RuntimeError("engine not connected")
        route = self.plan.routes.get(fn_name)
        if route is None:
            raise KeyError(f"function {fn_name!r} not in service plan "
                           f"for {self.plan.service!r}")
        if not pipelined:
            # A second blocking receiver on a CQ with a live pipeline
            # would steal its completions, so the call rides the same
            # window.  Otherwise the blocking driver is the cheaper one: no
            # handle, event, spawned process or correlation header.
            pipe = self._pipelines.get(route.channel)
            pipelined = pipe is not None and not pipe.dead \
                and pipe.pending > 0
        if fn_name not in self.idempotent_fns and seqid is not None \
                and (fn_name, seqid) in self._sent_seqids:
            # The seqid gate: this exact message already reached the wire
            # once; re-sending it could double-apply a write.
            self.faults.blind_retries_prevented += 1
            self._trace("blind_retry_prevented", fn_name, route.channel,
                        f"seqid={seqid}")
            raise TTransportException(
                TTransportException.UNKNOWN,
                f"refusing to re-send non-idempotent {fn_name} seqid={seqid};"
                " re-issue the call under a fresh seqid")
        sim = self.node.sim
        handle = None
        if pipelined:
            handle = CallHandle(sim, fn_name)
            handle._engine = self
        act = None
        if self._trc is not None:
            ch = self.plan.channels[route.channel]
            attrs = {
                "perf_goal": route.server_hints.perf_goal,
                "payload_size": route.server_hints.payload_size,
                "concurrency": route.server_hints.concurrency,
                "protocol": ch.protocol or "tcp",
                "transport": ch.transport,
                "rationale": route.choice.rationale,
                "req_bytes": len(message),
                "oneway": oneway,
            }
            if pipelined:
                attrs["window"] = ch.window
                attrs["async"] = True
            attrs.update(self.trace_attrs)
            act = self._trc.start_call(fn_name, self.node.name,
                                       lambda: sim.now, attrs=attrs)
            if not pipelined:
                # Nothing yields between write_message_begin and flush,
                # so serialization takes no simulated time.
                act.stage("serialize", sim.now, sim.now, nbytes=len(message))
                # The dynamic-hint path is the route lookup above -- cached
                # function type, so it costs no simulated time.
                act.stage("hint_select", sim.now, sim.now,
                          channel=route.channel,
                          rationale=route.choice.rationale,
                          **self.trace_attrs)
        return _PendingCall(self, fn_name, route, message, oneway, seqid,
                            handle, act)

    def _begin(self, entry: _PendingCall) -> int:
        """Start one attempt: pick the channel (primary, else the best
        surviving failover candidate) and open the attempt span -- before
        the channel opens, so connect time lands inside it."""
        primary = entry.route.channel
        for idx in self._candidates(primary):
            ch_plan = self.plan.channels[idx]
            if idx != primary and len(entry.message) > ch_plan.max_msg:
                continue  # message would not fit the fallback's buffers
            if self._breaker(idx).allow():
                break
        else:
            raise entry.error or TTransportException(
                TTransportException.NOT_OPEN,
                f"no channel available for {entry.fn}: "
                "all circuit breakers open")
        entry.channel = idx
        if entry.handle is not None:
            entry.handle.channel = idx
        if entry.act is not None:
            entry.act.begin_attempt(self.node.sim.now, attempt=entry.attempt,
                                    channel=idx,
                                    protocol=ch_plan.protocol or "tcp",
                                    transport=ch_plan.transport)
        return idx

    def _establish(self, entry: _PendingCall):
        """Coroutine: open the attempt's channel on first use."""
        idx = entry.channel
        t_conn = self.node.sim.now
        chan = yield from self._open_channel(self.plan.channels[idx])
        if entry.act is not None:
            entry.act.stage("connect", t_conn, self.node.sim.now,
                            channel=idx)
        if self.tuner is not None and idx not in self._routed():
            # The tuner retargeted away from this channel mid-handshake,
            # where the retarget-time drain could not see it.  Run the
            # committed call, then let the completion-side drain retire it.
            self._drain_pending = True
        return chan

    def _commit(self, entry: _PendingCall) -> None:
        """The call is about to reach the wire on its attempt's channel:
        from here on a failure may have been delivered."""
        idx = entry.channel
        if entry.seqid is not None:
            # Pinned while in flight: cap pressure from later calls must
            # not evict a live seqid (that would silently re-open the
            # duplicate-send window).
            self._sent_seqids.add((entry.fn, entry.seqid), pinned=True)
        self._note_routing(entry.fn, entry.route, idx)
        if self.tuner is not None:
            entry.epoch = self.tuner.epoch \
                if self.plan.channels[idx].transport == "rdma" else None
        entry.mark_inflight(idx)

    def _channel_failed(self, entry: _PendingCall, exc: BaseException
                        ) -> None:
        """The transport of ``entry``'s channel failed: charged once per
        failure, whichever driver (or the pipeline sweep) saw it."""
        idx = entry.channel
        if self.tuner is not None and isinstance(exc, ProtocolError):
            # Oversize payloads are the tuner's urgent case: the declared
            # payload hint is provably wrong, not merely slow, so it may
            # retarget without the usual dwell.  Signalled first: the
            # retarget retires the now-unrouted channel itself, so the
            # discard below finds nothing to charge a reconnect for.
            self.tuner.observe_error(entry.fn, len(entry.message), idx)
        self._breaker(idx).record_failure()
        self.faults.channel_failures += 1
        self._trace("channel_error", entry.fn, idx, type(exc).__name__)
        self._discard_channel(idx)

    def _retry_delay(self, entry: _PendingCall, error: Exception,
                     sent: bool = False,
                     retry_after: Optional[float] = None) -> float:
        """The per-call retry decision after a failed attempt: returns the
        backoff before the next one, or raises ``error`` -- what the call
        surfaces when the answer is no.  ``sent``: the request may have
        reached the wire; ``retry_after`` marks a rejection (provably never
        dispatched, so ``sent`` does not apply)."""
        policy = self.retry_policy
        idx = entry.channel
        entry.error = error
        entry.attempt += 1
        if sent and entry.fn not in self.idempotent_fns:
            # Wire state unknown: a blind re-send could double-apply.
            self.faults.blind_retries_prevented += 1
            self._trace("blind_retry_prevented", entry.fn, idx,
                        f"seqid={entry.seqid}")
            raise error
        if entry.attempt >= policy.max_attempts or not self._connected:
            raise error
        if self.retry_budget is not None \
                and not self.retry_budget.try_spend():
            # The shared budget (None = unlimited) denies the retry: the
            # typed error surfaces instead of another wire attempt.
            self.faults.budget_exhausted += 1
            self._trace("retry_budget_exhausted", entry.fn, idx)
            raise error
        delay = policy.backoff(entry.attempt - 1, self.rng)
        if retry_after is None:
            self.faults.retries += 1
            kind = "retry"
        else:
            self.faults.rejected_retries += 1
            kind = "rejected_retry"
            delay = max(retry_after, delay)
        self._trace(kind, entry.fn, idx,
                    f"attempt={entry.attempt} backoff={delay:.2e}")
        return delay

    def _attempt_failed(self, entry: _PendingCall, exc: BaseException,
                        sent: bool) -> float:
        """A driver's attempt died of channel error ``exc``: close its span
        (before the fault events, so they read as root-level siblings of
        the attempt subtrees), charge the channel, decide the retry."""
        if entry.act is not None:
            entry.act.end_attempt(self.node.sim.now, status="error",
                                  error=type(exc).__name__)
        self._channel_failed(entry, exc)
        return self._retry_delay(entry, self._map_error(exc), sent)

    def _settle(self, entry: _PendingCall, header: frame.Header, resp):
        """Settle one response, already split into its frame header and
        body.  Returns ``(None, body)`` for a served call, ``(delay,
        None)`` for a shed one that is to be re-sent after ``delay``;
        raises the typed rejection when it is not."""
        idx = entry.channel
        act = entry.act
        now = self.node.sim.now
        # A response came back, so the transport worked: the breaker is
        # credited whether the server served the call or shed it.
        self._breaker(idx).record_success()
        retry_after = header.retry_after
        if retry_after is not None:
            # Admission rejection: load, not failure.  The gate runs
            # before dispatch, so the re-send is safe whatever the
            # function's idempotency -- after honoring the server's
            # ``retry_after``, under the retry budget.
            self.faults.rejections += 1
            self._trace("rejected", entry.fn, idx,
                        f"retry_after={retry_after:.2e}")
            if act is not None:
                act.end_attempt(now, status="rejected")
            return self._retry_delay(
                entry, TRejectedException(retry_after),
                retry_after=retry_after), None
        if act is not None:
            act.end_attempt(now, status="ok")
        latency = now - entry.t_start
        self.calls_routed += 1
        if self._obs is not None:
            self._m_calls.inc()
            self._m_latency.record(latency)
            m = self._chan_metrics.get(idx)
            if m is not None:
                m[0].inc()
                m[1].inc(len(entry.message))
                m[2].inc(len(resp or b""))
        if self.tuner is not None and not entry.oneway:
            self.tuner.observe(
                entry.fn, len(entry.message), latency, now, idx,
                epoch_ok=(header.epoch is None
                          or header.epoch == self.tuner.epoch))
        if self._drain_pending:
            self._drain_unrouted()
        return None, resp

    def _backoff(self, entry: _PendingCall, delay: float):
        """Coroutine: the one backoff sleep."""
        sim = self.node.sim
        t_back = sim.now
        yield sim.timeout(delay)
        if entry.act is not None:
            entry.act.stage("backoff", t_back, sim.now,
                            attempt=entry.attempt)

    # -- the blocking wire driver --------------------------------------------
    def _call_blocking(self, entry: _PendingCall):
        """Coroutine: run ``chan.call`` inline in the caller's process until
        the call settles: returns the response or raises the terminal error."""
        try:
            while True:
                idx = self._begin(entry)
                sent = False
                try:
                    chan = self._channels.get(idx)
                    if chan is None:
                        chan = yield from self._establish(entry)
                    self._commit(entry)
                    sent = True
                    try:
                        resp = yield from chan.call(
                            entry.wire(None), oneway=entry.oneway,
                            trace=entry.act)
                    finally:
                        # Every exit gives the count back -- including a
                        # deadline interrupt delivered into chan.call.
                        entry.drop_gauge()
                except _CHANNEL_ERRORS as exc:
                    delay = self._attempt_failed(entry, exc, sent)
                else:
                    delay, resp = self._settle(entry, *frame.split(resp))
                    if delay is None:
                        return resp
                yield from self._backoff(entry, delay)
        finally:
            entry.release()

    def _call_within(self, entry: _PendingCall, budget: float):
        """Coroutine: the blocking driver under a deadline.  A
        single-outstanding wire cannot be abandoned mid-call, so expiry
        interrupts the attempt and discards its channel."""
        sim = self.node.sim
        # The spawned process inherits the caller's trace_ctx, so spans
        # recorded inside it land in the same trace.
        attempt = sim.process(self._call_blocking(entry),
                              name=f"call-{entry.fn}")
        expiry = sim.timeout(budget)
        try:
            yield sim.any_of([attempt, expiry])
        except Exception:
            pass  # the attempt failed before the deadline; inspected below
        if attempt.triggered:
            return attempt.value       # re-raises the failure if there was one
        # Deadline expired with the attempt still in flight: cancel it and
        # discard whatever channel it was using -- its wire state is unknown.
        attempt.defuse()
        attempt.interrupt("deadline")
        if entry.act is not None:
            # The interrupted process never reaches its own end_attempt;
            # close the span here so the committed trace has no dangling
            # attempt and stage attribution doesn't miscount the tail.
            entry.act.end_attempt(sim.now, status="interrupted")
        primary = entry.route.channel
        self.faults.timeouts += 1
        self._trace("timeout", entry.fn, primary, f"budget={budget}")
        self._discard_channel(self._last_channel.get(primary, primary))
        raise TTransportException(
            TTransportException.TIMED_OUT,
            f"{entry.fn} exceeded its {budget * 1e6:.0f}us deadline")

    # -- the pipelined wire driver -------------------------------------------
    def _submit_entry(self, entry: _PendingCall,
                      delay: Optional[float] = None):
        """Coroutine: put one call on a channel's in-flight window (after
        ``delay`` when this is a detached re-send), retrying establishment
        / post failures.  The call is finished later, from the pipeline's
        receiver (:meth:`_PendingCall.complete`) or sweep
        (:meth:`_pipeline_dead`); failures land on the handle."""
        detached = delay is not None
        p = self.node.sim.active_process
        prev_ctx = p.trace_ctx if p is not None else None
        if p is not None:
            p.trace_ctx = entry.act
        try:
            while True:
                if delay is not None:
                    yield from self._backoff(entry, delay)
                idx = self._begin(entry)
                try:
                    chan = self._channels.get(idx)
                    if chan is None:
                        chan = yield from self._establish(entry)
                    pipe = self._pipeline_for(idx, chan)
                    self._commit(entry)
                    yield from pipe.submit(entry)
                    return
                except PipelineDead as dead:
                    exc, sent = dead.__cause__, True
                    if exc is None:
                        # Died while this entry waited for a window slot:
                        # it never reached the wire and the sweep already
                        # charged the channel, so re-picking costs no
                        # budget and no backoff.
                        entry.drop_gauge()
                        if entry.act is not None:
                            entry.act.end_attempt(self.node.sim.now,
                                                  status="error",
                                                  error="PipelineDead")
                        entry.attempt += 1
                        if entry.attempt >= self.retry_policy.max_attempts \
                                or not self._connected:
                            raise self._map_error(dead)
                        delay = None
                        continue
                    # else the post itself failed: wire state is unknown
                except _CHANNEL_ERRORS as err:
                    exc, sent = err, False     # establishment failed
                entry.drop_gauge()
                delay = self._attempt_failed(entry, exc, sent)
        except Exception as exc:
            # A foreign exception in the caller's own process is theirs.
            if not (detached or isinstance(exc, TTransportException)):
                raise
            entry.fail(exc)
        finally:
            if p is not None:
                p.trace_ctx = prev_ctx

    def _resend(self, entry: _PendingCall, delay: float) -> None:
        """Re-send a settled-as-retry pipelined call from a detached
        process (its caller may be gone; only the handle waits)."""
        self.node.sim.process(self._submit_entry(entry, delay),
                              name=f"resubmit-{entry.fn}")

    def _pipeline_for(self, idx: int, chan) -> ChannelPipeline:
        """The live pipeline over open channel ``idx`` (made on first use)."""
        pipe = self._pipelines.get(idx)
        if pipe is None or pipe.dead:
            m = self._chan_metrics.get(idx)
            pipe = self._pipelines[idx] = ChannelPipeline(
                self.node.sim, chan, window=self.plan.channels[idx].window,
                index=idx, error_types=_CHANNEL_ERRORS,
                on_dead=self._pipeline_dead,
                occupancy=m[4] if m is not None else None)
        return pipe

    def _pipeline_dead(self, pipe: ChannelPipeline, entries, exc) -> None:
        """A channel died with calls in flight: charge it once, then give
        every swept call its own retry decision -- idempotent ones re-send
        elsewhere, the rest fail, none blocks its neighbors."""
        now = self.node.sim.now
        for entry in entries:
            entry.drop_gauge()
            if entry.act is not None:
                entry.act.end_attempt(now, status="error",
                                      error=type(exc).__name__)
        self._channel_failed(entries[0], exc)
        mapped = self._map_error(exc)
        for entry in entries:
            try:
                delay = self._retry_delay(entry, mapped, sent=True)
            except TTransportException as error:
                entry.fail(error)
            else:
                self._resend(entry, delay)

    def _note_abandoned(self, handle: CallHandle) -> None:
        """A waiter timed out on a still-in-flight pipelined call: account
        it as a timeout, but leave the wire alone -- the late response is
        dropped on arrival and window neighbors keep flowing."""
        self.faults.timeouts += 1
        self._trace("timeout", handle.fn, handle.channel,
                    "abandoned in-flight (pipelined)")

    # -- routing helpers -----------------------------------------------------
    def _note_routing(self, fn_name: str, route: FunctionRoute, idx: int
                      ) -> None:
        prev = self._last_channel.get(route.channel, route.channel)
        if idx != route.channel:
            self.faults.failovers += 1
            self._trace("failover", fn_name, idx,
                        f"primary={route.channel}")
        elif prev != route.channel:
            self.faults.failbacks += 1
            self._trace("failback", fn_name, idx, f"from={prev}")
        self._last_channel[route.channel] = idx

    @staticmethod
    def _map_error(exc: Exception) -> Exception:
        """Normalize transport failures onto the Thrift error taxonomy."""
        if isinstance(exc, WCError):
            return transport_exception_from_wc(exc.status)
        if isinstance(exc, TTransportException):
            return exc
        if isinstance(exc, ConnectionError):
            return TTransportException(TTransportException.NOT_OPEN,
                                       str(exc))
        return TTransportException(TTransportException.UNKNOWN, str(exc))
